"""JSON experiment configuration: loading and object construction.

An experiment file is one JSON object with up to six sections, each
itself an object.  Each section accepts only the keys it reads:

  model        preset (a preset name; the explicit keys below are then
               unused), theta_lower, t0, generator (array of arrays,
               row-major), initial (a constant or {"times", "values"}),
               measure and kernel (the shared ones), drift and
               diffusion (per-regime term lists), dim (must be 1).
  simulation   dt and T (both required), n_paths, i0, root_seed,
               block_size, blowup_threshold.
  output       moments (powers to tabulate), per_path (dump per-path
               CSVs), per_path_limit, dir.
  lyapunov     preset, or regimes (per-regime [power, coeff] lists) with
               u0_power, u_powers and strict; t_end, the horizon of the
               residual check.
  certificate  preset, or rows ({"a", "b_alpha"} objects) with
               theta_lower, t0, a0, beta, u0_power and moment_powers;
               checks (which to run) and epsilon (a candidate rate).
  estimate     power, the default comparison power of ``hpsfde estimate``.

Defaults are those of the code that owns each setting: the preset
builders (t0, initial), the integrator (block_size, blowup_threshold)
and the measures (nodes).  An unknown key, a missing required key or a
nested value of the wrong JSON type is a ValueError that names it, e.g.
``unknown key output.per_paths`` or ``certificate.theta_lower is
required``.

Term objects look like

  {"type": "polynomial", "coeffs": [[1, -5.0], [3, -5.0]]}
  {"type": "pantograph", "coeff": 0.5, "measure": "shared",
   "kernel": true, "point_exponent": 2.0, "delay_exponent": 1.0,
   "signed": false}

where "measure": "shared" refers to the model-level measure spec and
"kernel": true to the model-level kernel.
"""

from __future__ import annotations

import json
from typing import Optional

from .certificates import CertificateData, CertificateRow
from .integrator import DEFAULT_BLOCK_SIZE, IntegratorConfig
from .lyapunov import LyapunovFamily, PolynomialV
from .markov import make_generator
from .models import (DEFAULT_DENSITY_NODES, Kernel, Measure, ModelSpec,
                     PantographTerm, PolynomialTerm)
from .presets import (DEFAULT_INITIAL, DEFAULT_T0, preset, preset_certificate,
                      preset_lyapunov)

# The keys of each section and the JSON type of the structured ones:
# dict is an object, list an array, None a value checked where it is read.
_KEYS = {
    "model": {"preset": None, "dim": None, "theta_lower": None, "t0": None,
              "generator": list, "initial": None, "measure": dict,
              "kernel": dict, "drift": list, "diffusion": list},
    "simulation": dict.fromkeys(("dt", "T", "n_paths", "i0", "root_seed",
                                 "block_size", "blowup_threshold")),
    "output": {"moments": list, "per_path": None, "per_path_limit": None,
               "dir": None},
    "lyapunov": {"preset": None, "regimes": list, "u0_power": None,
                 "u_powers": list, "strict": None, "t_end": None},
    "certificate": {"preset": None, "rows": list, "theta_lower": None,
                    "t0": None, "a0": None, "beta": None, "u0_power": None,
                    "moment_powers": list, "checks": list, "epsilon": None},
    "estimate": {"power": None},
}
_JSON_NAMES = {dict: "object", list: "array"}


def _reject_constant(name):
    raise ValueError("%s is not a JSON number" % name)


def _typed(value, name: str, kind):
    """``value``, or a ValueError naming ``name`` if it is not a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError("%s must be a JSON %s, got %r"
                         % (name, _JSON_NAMES[kind], value))
    return value


def _field(spec, name: str, kind=None):
    """``spec[key]``, ``key`` being the last part of the dotted ``name``.

    Raises ValueError naming ``name`` when the key is absent or its
    value is not a ``kind``, and naming the rest of ``name`` when
    ``spec`` is not an object.
    """
    parent, _, key = name.rpartition(".")
    if key not in _typed(spec, parent, dict):
        raise ValueError("%s is required" % name)
    return spec[key] if kind is None else _typed(spec[key], name, kind)


def _pairs(value, name: str):
    """``value`` if it is an array of two-element arrays."""
    for pair in _typed(value, name, list):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError("%s must hold [x, y] pairs, got %r"
                             % (name, pair))
    return value


def _section(cfg: dict, name: str) -> dict:
    """Section ``name`` of a config, {} when it is absent.

    Raises ValueError when the section is not an object or holds a key
    that nothing reads or a value of the wrong JSON type.
    """
    spec = cfg.get(name, {})
    if not isinstance(spec, dict):
        raise ValueError("section %r must be a JSON object" % name)
    known = _KEYS[name]
    for key, value in spec.items():
        if key not in known:
            raise ValueError("unknown key %s.%s (known: %s)"
                             % (name, key, ", ".join(known)))
        if known[key] is not None:
            _typed(value, "%s.%s" % (name, key), known[key])
    return spec


def load_config(path) -> dict:
    """Read one experiment file; accepts a path or an open text file.

    NaN and Infinity literals, which Python's json module would accept,
    are rejected: JSON has no such numbers.  So are a top level that is
    not a JSON object and sections that :func:`_section` rejects.
    """
    if hasattr(path, "read"):
        cfg = json.load(path, parse_constant=_reject_constant)
    else:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(cfg, dict):
        raise ValueError("the top level of an experiment file must be a "
                         "JSON object")
    for name in _KEYS:
        _section(cfg, name)
    return cfg


def build_measure(spec) -> Measure:
    """Measure from its JSON form.

    Forms: {"kind": "atoms", "atoms": [[theta, weight], ...]},
    {"kind": "point", "theta": th}, {"kind": "uniform", "lo": a,
    "hi": b, "nodes": n}, {"kind": "density", "edges": [...],
    "values": [...], "nodes": n}.
    """
    kind = _typed(spec, "measure", dict).get("kind", "atoms")
    if kind == "atoms":
        atoms = _pairs(_field(spec, "measure.atoms"), "measure.atoms")
        return Measure.from_atoms([(a[0], a[1]) for a in atoms])
    if kind == "point":
        return Measure.point_mass(spec.get("theta", 1.0))
    if kind == "uniform":
        return Measure.uniform(
            _field(spec, "measure.lo"), _field(spec, "measure.hi"),
            nodes=int(spec.get("nodes", DEFAULT_DENSITY_NODES)))
    if kind == "density":
        return Measure.piecewise_density(
            _field(spec, "measure.edges", kind=list),
            _field(spec, "measure.values", kind=list),
            nodes=int(spec.get("nodes", DEFAULT_DENSITY_NODES)))
    raise ValueError("unknown measure kind %r" % (kind,))


def _build_term(spec, name: str, shared_measure: Optional[Measure],
                shared_kernel: Optional[Kernel]):
    """The term at ``name``, such as model.drift[0][1]."""
    kind = _field(spec, name + ".type")
    if kind == "polynomial":
        coeffs = _pairs(_field(spec, name + ".coeffs"), name + ".coeffs")
        return PolynomialTerm([(int(p), float(c)) for p, c in coeffs])
    if kind == "pantograph":
        mspec = spec.get("measure", "shared")
        if mspec == "shared":
            if shared_measure is None:
                raise ValueError(
                    "term requests the shared measure but none is defined")
            measure = shared_measure
        else:
            measure = build_measure(_typed(mspec, name + ".measure", dict))
        kspec = spec.get("kernel", False)
        if kspec is True:
            kernel = shared_kernel
        elif kspec in (False, None):
            kernel = None
        else:
            kernel = Kernel.linear(float(_field(kspec, name + ".kernel.beta")))
        return PantographTerm(
            coeff=float(_field(spec, name + ".coeff")),
            measure=measure, kernel=kernel,
            point_exponent=float(spec.get("point_exponent", 0.0)),
            delay_exponent=float(spec.get("delay_exponent", 1.0)),
            signed=bool(spec.get("signed", False)))
    raise ValueError("unknown term type %r" % (kind,))


def build_model(cfg: dict) -> ModelSpec:
    """ModelSpec from the ``model`` section of a config.

    The state is scalar: an optional ``"dim"`` key must be 1.
    """
    spec = _section(cfg, "model")
    if spec.get("dim", 1) != 1:
        raise ValueError('model "dim" must be 1 (the state is scalar), got %r'
                         % (spec["dim"],))
    shared_measure = (build_measure(spec["measure"])
                      if "measure" in spec else None)
    t0 = float(spec.get("t0", DEFAULT_T0))
    initial = _initial_from(spec.get("initial", DEFAULT_INITIAL))
    name = spec.get("preset")
    if name is not None:
        return preset(name, nu_choice=shared_measure, t0=t0, initial=initial)
    shared_kernel = (
        Kernel.linear(float(_field(spec["kernel"], "model.kernel.beta")))
        if "kernel" in spec else None)

    def terms(part):
        return tuple(
            tuple(_build_term(t, "%s[%d][%d]" % (part, i, j), shared_measure,
                              shared_kernel)
                  for j, t in enumerate(_typed(one_regime,
                                               "%s[%d]" % (part, i), list)))
            for i, one_regime in enumerate(_field(spec, part)))

    return ModelSpec(
        theta_lower=float(_field(spec, "model.theta_lower")), t0=t0,
        generator=make_generator(_field(spec, "model.generator")),
        drift=terms("model.drift"), diffusion=terms("model.diffusion"),
        initial_segment=initial)


def _initial_from(spec):
    if isinstance(spec, dict):
        return (tuple(_field(spec, "model.initial.times", kind=list)),
                tuple(_field(spec, "model.initial.values", kind=list)))
    return float(spec)


def build_lyapunov(cfg: dict) -> LyapunovFamily:
    """LyapunovFamily from the ``lyapunov`` section (or model preset)."""
    spec = _section(cfg, "lyapunov")
    name = spec.get("preset", _section(cfg, "model").get("preset"))
    if "regimes" not in spec:
        if name is None:
            raise ValueError("lyapunov section needs a preset or regimes")
        return preset_lyapunov(name)
    regimes = tuple(
        PolynomialV([(int(p), float(c)) for p, c in
                     _pairs(coeffs, "lyapunov.regimes[%d]" % i)])
        for i, coeffs in enumerate(spec["regimes"]))
    return LyapunovFamily(
        regimes=regimes, u0_power=int(_field(spec, "lyapunov.u0_power")),
        u_powers=tuple(int(p) for p in _field(spec, "lyapunov.u_powers")),
        strict=bool(spec.get("strict", False)))


def build_certificate(cfg: dict) -> CertificateData:
    """CertificateData from the ``certificate`` section (or model preset)."""
    spec = _section(cfg, "certificate")
    model = _section(cfg, "model")
    name = spec.get("preset", model.get("preset"))
    model_t0 = model.get("t0", DEFAULT_T0)
    if "rows" not in spec:
        if name is None:
            raise ValueError("certificate section needs a preset or rows")
        return preset_certificate(name, t0=float(model_t0))
    rows = tuple(
        CertificateRow(
            a=float(_field(r, "certificate.rows[%d].a" % k)),
            b_alpha=tuple((float(b), float(al)) for b, al in _pairs(
                _field(r, "certificate.rows[%d].b_alpha" % k),
                "certificate.rows[%d].b_alpha" % k)))
        for k, r in enumerate(spec["rows"]))
    beta = spec.get("beta")
    return CertificateData(
        a0=float(spec.get("a0", 0.0)), rows=rows,
        theta_lower=float(_field(spec, "certificate.theta_lower")),
        t0=float(spec.get("t0", model_t0)),
        beta=None if beta is None else float(beta),
        u0_power=int(spec.get("u0_power", 2)),
        moment_powers=tuple(int(p) for p in spec.get("moment_powers", ())))


def simulation_params(cfg: dict) -> dict:
    """Normalized ``simulation`` section with defaults filled in."""
    spec = _section(cfg, "simulation")
    if "dt" not in spec or "T" not in spec:
        raise ValueError("simulation section must set dt and T")
    block_size = int(spec.get("block_size", DEFAULT_BLOCK_SIZE))
    if block_size < 1:
        raise ValueError("simulation.block_size must be >= 1, got %d"
                         % block_size)
    return {
        "dt": float(spec["dt"]),
        "T": float(spec["T"]),
        "n_paths": int(spec.get("n_paths", 100)),
        "i0": int(spec.get("i0", 1)),
        "root_seed": int(spec.get("root_seed", 0)),
        "block_size": block_size,
        "blowup_threshold": float(spec.get(
            "blowup_threshold", IntegratorConfig.blowup_threshold)),
    }
