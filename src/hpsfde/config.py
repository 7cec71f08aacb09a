"""JSON experiment configuration: loading and object construction.

An experiment file is one JSON object with up to six sections, each
itself an object; any other top-level key is an error.  Each section
accepts only the keys it reads, and so does each object nested in one
(a measure by its kind, a term by its type, a kernel, the initial table
and a certificate row):

  model        preset (a preset name; the explicit keys below other
               than t0, initial and measure are then an error),
               theta_lower, t0, generator (array of arrays,
               row-major), initial (a constant or {"times", "values"}),
               measure and kernel (the shared ones), drift and
               diffusion (per-regime term lists).
  simulation   dt and T (both required), n_paths, i0, root_seed,
               block_size, blowup_threshold.
  output       moments (powers to tabulate), per_path (dump per-path
               CSVs), per_path_limit (only with per_path).  The
               directory is the command line's ``--out``.
  lyapunov     preset, or regimes (per-regime [power, coeff] lists) with
               u0_power and u_powers; t_end, the horizon of the residual
               check.
  certificate  preset, or rows ({"a", "b_alpha"} objects) with
               theta_lower, t0, a0 and beta; checks (which to run, from
               existence, exponential, polynomial and time-average; not
               empty) and epsilon (a candidate rate for the exponential
               check, which must be among those run).
  estimate     power, the default comparison power of ``hpsfde estimate``.

Defaults are those of the code that owns each setting: the preset
builders (t0, initial), the integrator (block_size, blowup_threshold)
and the measures (nodes).  An unknown section or key, a missing
required key, a value of the wrong JSON type or an unknown check is a
ValueError that names it, e.g. ``unknown key output.per_paths``,
``certificate.theta_lower is required`` or ``simulation.n_paths must
be a JSON integer, got 2.5``.
A number is never a boolean, and counts, seeds, indices, node counts
and powers of x must be integral.

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
import math
import numbers
from typing import Optional

from .certificates import CertificateData, CertificateRow
from .errors import require_index
from .integrator import DEFAULT_BLOCK_SIZE, IntegratorConfig
from .lyapunov import LyapunovFamily, PolynomialV
from .markov import make_generator
from .models import (DEFAULT_DENSITY_NODES, Kernel, Measure, ModelSpec,
                     PantographTerm, PolynomialTerm)
from .presets import (DEFAULT_INITIAL, DEFAULT_T0, preset, preset_certificate,
                      preset_lyapunov)

_NULL = type(None)
_REQUIRED = object()

# The keys of each section and the JSON type of their values, as
# ``_typed`` reads a kind; the items of nested objects are checked where
# they are read.
_KEYS = {
    "model": {"preset": (str, _NULL), "theta_lower": float, "t0": float,
              "generator": [[float]], "initial": (float, dict),
              "measure": dict, "kernel": dict, "drift": [[dict]],
              "diffusion": [[dict]]},
    "simulation": {"dt": float, "T": float, "n_paths": int, "i0": int,
                   "root_seed": int, "block_size": int,
                   "blowup_threshold": float},
    "output": {"moments": [float], "per_path": bool,
               "per_path_limit": (int, _NULL)},
    "lyapunov": {"preset": (str, _NULL), "regimes": [list], "u0_power": int,
                 "u_powers": [int], "t_end": float},
    "certificate": {"preset": (str, _NULL), "rows": [dict],
                    "theta_lower": float, "t0": float, "a0": float,
                    "beta": (float, _NULL), "checks": [str],
                    "epsilon": (float, _NULL)},
    "estimate": {"power": float},
}
# The model keys that a preset sets itself.
_PRESET_FIXES = ("theta_lower", "generator", "kernel", "drift", "diffusion")
# The keys of each nested object: a measure's by kind, a term's by type.
_MEASURE_KEYS = {"atoms": ("kind", "atoms"), "point": ("kind", "theta"),
                 "uniform": ("kind", "lo", "hi", "nodes"),
                 "density": ("kind", "edges", "values", "nodes")}
_TERM_KEYS = {"polynomial": ("type", "coeffs"),
              "pantograph": ("type", "coeff", "measure", "kernel",
                             "point_exponent", "delay_exponent", "signed")}
CERTIFICATE_CHECKS = ("existence", "exponential", "polynomial",
                      "time-average")
_JSON_NAMES = {dict: "object", list: "array", float: "number",
               int: "integer", bool: "boolean", str: "string", _NULL: "null"}


def _reject_constant(name):
    raise ValueError("%s is not a JSON number" % name)


def _is_json(value, kind) -> bool:
    if kind is float or kind is int:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
        return (kind is float or isinstance(value, numbers.Integral)
                or float(value).is_integer())
    return isinstance(value, kind)


def _typed(value, name: str, kind):
    """``value`` as a ``kind``, or a ValueError naming ``name``.

    A kind is a key of ``_JSON_NAMES`` (float is any number, int an
    integral one, returned as a Python float or int), a tuple of them,
    any of which will do, or ``[k]``: an array whose items are each a
    ``k``, named ``name[i]``.  A number must be finite.
    """
    if isinstance(kind, list):
        for i, item in enumerate(_typed(value, name, list)):
            _typed(item, "%s[%d]" % (name, i), kind[0])
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if _is_json(value, k):
            if k not in (float, int):
                return value
            try:
                number = k(value)
            except OverflowError:  # an integer past the float range
                number = math.inf
            # 1e999 is valid JSON and parses to inf
            if isinstance(number, float) and not math.isfinite(number):
                raise ValueError("%s must be finite, got %r" % (name, number))
            return number
    raise ValueError("%s must be a JSON %s, got %r"
                     % (name, " or ".join(_JSON_NAMES[k] for k in kinds),
                        value))


def _field(spec, name: str, kind=None, default=_REQUIRED):
    """``spec[key]``, ``key`` being the last part of the dotted ``name``.

    Returns ``default`` when the key is absent and a default is given.
    Raises ValueError naming ``name`` when the key is required but
    absent or its value is not a ``kind``, and naming the rest of
    ``name`` when ``spec`` is not an object.
    """
    parent, _, key = name.rpartition(".")
    if key not in _typed(spec, parent, dict):
        if default is _REQUIRED:
            raise ValueError("%s is required" % name)
        return default
    return spec[key] if kind is None else _typed(spec[key], name, kind)


def _object(spec, name: str, keys) -> dict:
    """``spec`` if it is an object whose keys are among ``keys``.

    Raises ValueError naming ``name`` when it is not an object, and
    ``name.key`` for a key that nothing reads.
    """
    for key in _typed(spec, name, dict):
        if key not in keys:
            raise ValueError("unknown key %s.%s (known: %s)"
                             % (name, key, ", ".join(keys)))
    return spec


def _pairs(value, name: str, kinds=(float, float)):
    """``value`` if it is an array of [x, y] arrays of the two ``kinds``."""
    for i, pair in enumerate(_typed(value, name, list)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError("%s must hold [x, y] pairs, got %r"
                             % (name, pair))
        for j, kind in enumerate(kinds):
            _typed(pair[j], "%s[%d][%d]" % (name, i, j), kind)
    return value


def _section(cfg: dict, name: str) -> dict:
    """Section ``name`` of a config, {} when it is absent.

    Raises ValueError when the section is not an object or holds a key
    that nothing reads, a value of the wrong JSON type or, beside
    ``model.preset``, a model key that the preset sets.
    """
    spec = cfg.get(name, {})
    if not isinstance(spec, dict):
        raise ValueError("section %r must be a JSON object" % name)
    known = _KEYS[name]
    fixed = _PRESET_FIXES if spec.get("preset") is not None else ()
    for key, value in _object(spec, name, known).items():
        _typed(value, "%s.%s" % (name, key), known[key])
        if name == "model" and key in fixed:
            raise ValueError("model.%s is set by model.preset %r; drop one "
                             "of them" % (key, spec["preset"]))
    return spec


def load_config(path) -> dict:
    """Read one experiment file; accepts a path or an open text file.

    NaN and Infinity literals, which Python's json module would accept,
    are rejected: JSON has no such numbers.  So are a top level that is
    not a JSON object, a top-level key that is not a section, sections
    that :func:`_section` rejects, an empty certificate check list and
    a check outside ``CERTIFICATE_CHECKS``.
    """
    if hasattr(path, "read"):
        cfg = json.load(path, parse_constant=_reject_constant)
    else:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(cfg, dict):
        raise ValueError("the top level of an experiment file must be a "
                         "JSON object")
    for name in cfg:
        if name not in _KEYS:
            raise ValueError("unknown section %s (known: %s)"
                             % (name, ", ".join(_KEYS)))
    for name in _KEYS:
        _section(cfg, name)
    checks = cfg.get("certificate", {}).get("checks")
    if checks == []:
        raise ValueError("certificate.checks must name at least one check")
    for i, check in enumerate(checks or ()):
        if check not in CERTIFICATE_CHECKS:
            raise ValueError("certificate.checks[%d] must be one of %s, got %r"
                             % (i, ", ".join(CERTIFICATE_CHECKS), check))
    return cfg


def build_measure(spec, name: str = "measure") -> Measure:
    """Measure from its JSON form, the object at ``name``.

    Forms: {"kind": "atoms", "atoms": [[theta, weight], ...]},
    {"kind": "point", "theta": th}, {"kind": "uniform", "lo": a,
    "hi": b, "nodes": n}, {"kind": "density", "edges": [...],
    "values": [...], "nodes": n}.
    """
    kind = _field(spec, name + ".kind", str, "atoms")
    if kind not in _MEASURE_KEYS:
        raise ValueError("unknown measure kind %r" % (kind,))
    _object(spec, name, _MEASURE_KEYS[kind])
    if kind == "atoms":
        atoms = _pairs(_field(spec, name + ".atoms"), name + ".atoms")
        return Measure.from_atoms([(a[0], a[1]) for a in atoms])
    if kind == "point":
        return Measure.point_mass(_field(spec, name + ".theta", float, 1.0))
    nodes = _field(spec, name + ".nodes", int, DEFAULT_DENSITY_NODES)
    if kind == "uniform":
        return Measure.uniform(_field(spec, name + ".lo", float),
                               _field(spec, name + ".hi", float), nodes=nodes)
    return Measure.piecewise_density(
        _field(spec, name + ".edges", [float]),
        _field(spec, name + ".values", [float]), nodes=nodes)


def _kernel(spec, name: str) -> Kernel:
    """The kernel object at ``name``."""
    return Kernel(_field(_object(spec, name, ("beta",)), name + ".beta",
                         float))


def _build_term(spec, name: str, shared_measure: Optional[Measure],
                shared_kernel: Optional[Kernel]):
    """The term at ``name``, such as model.drift[0][1]."""
    kind = _field(spec, name + ".type", str)
    if kind not in _TERM_KEYS:
        raise ValueError("unknown term type %r" % (kind,))
    _object(spec, name, _TERM_KEYS[kind])
    if kind == "polynomial":
        coeffs = _pairs(_field(spec, name + ".coeffs"), name + ".coeffs",
                        (int, float))
        return PolynomialTerm([(int(p), float(c)) for p, c in coeffs])
    mspec = spec.get("measure", "shared")
    if mspec == "shared":
        if shared_measure is None:
            raise ValueError(
                "term requests the shared measure but none is defined")
        measure = shared_measure
    else:
        measure = build_measure(mspec, name + ".measure")
    kspec = _field(spec, name + ".kernel", (bool, _NULL, dict), False)
    if kspec is True:
        kernel = shared_kernel
    elif kspec in (False, None):
        kernel = None
    else:
        kernel = _kernel(kspec, name + ".kernel")
    return PantographTerm(
        coeff=_field(spec, name + ".coeff", float),
        measure=measure, kernel=kernel,
        point_exponent=_field(spec, name + ".point_exponent", float, 0.0),
        delay_exponent=_field(spec, name + ".delay_exponent", float, 1.0),
        signed=_field(spec, name + ".signed", bool, False))


def build_model(cfg: dict) -> ModelSpec:
    """ModelSpec from the ``model`` section of a config."""
    spec = _section(cfg, "model")
    shared_measure = (build_measure(spec["measure"], "model.measure")
                      if "measure" in spec else None)
    t0 = float(spec.get("t0", DEFAULT_T0))
    initial = _initial_from(spec.get("initial", DEFAULT_INITIAL))
    name = spec.get("preset")
    if name is not None:
        return preset(name, nu_choice=shared_measure, t0=t0, initial=initial)
    shared_kernel = (_kernel(spec["kernel"], "model.kernel")
                     if "kernel" in spec else None)

    def terms(part):
        return tuple(
            tuple(_build_term(t, "%s[%d][%d]" % (part, i, j), shared_measure,
                              shared_kernel)
                  for j, t in enumerate(one_regime))
            for i, one_regime in enumerate(_field(spec, part)))

    return ModelSpec(
        theta_lower=_field(spec, "model.theta_lower", float), t0=t0,
        generator=make_generator(_field(spec, "model.generator")),
        drift=terms("model.drift"), diffusion=terms("model.diffusion"),
        initial_segment=initial)


def _initial_from(spec):
    if isinstance(spec, dict):
        _object(spec, "model.initial", ("times", "values"))
        return (tuple(_field(spec, "model.initial.times", [float])),
                tuple(_field(spec, "model.initial.values", [float])))
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
                     _pairs(coeffs, "lyapunov.regimes[%d]" % i, (int, float))])
        for i, coeffs in enumerate(spec["regimes"]))
    return LyapunovFamily(
        regimes=regimes, u0_power=_field(spec, "lyapunov.u0_power", int),
        u_powers=tuple(int(p) for p in _field(spec, "lyapunov.u_powers")))


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
    rows = []
    for k, r in enumerate(spec["rows"]):
        name = "certificate.rows[%d]" % k
        _object(r, name, ("a", "b_alpha"))
        rows.append(CertificateRow(
            a=_field(r, name + ".a", float),
            b_alpha=tuple((float(b), float(al)) for b, al in _pairs(
                _field(r, name + ".b_alpha"), name + ".b_alpha"))))
    beta = spec.get("beta")
    return CertificateData(
        a0=float(spec.get("a0", 0.0)), rows=tuple(rows),
        theta_lower=_field(spec, "certificate.theta_lower", float),
        t0=float(spec.get("t0", model_t0)),
        beta=None if beta is None else float(beta))


def simulation_params(cfg: dict) -> dict:
    """Normalized ``simulation`` section with defaults filled in.

    The counts and the seed are checked here; ``i0`` needs the model,
    and is checked where the batch is run.
    """
    spec = _section(cfg, "simulation")
    if "dt" not in spec or "T" not in spec:
        raise ValueError("simulation section must set dt and T")
    sim = {
        "dt": float(spec["dt"]),
        "T": float(spec["T"]),
        "n_paths": int(spec.get("n_paths", 100)),
        "i0": int(spec.get("i0", 1)),
        "root_seed": int(spec.get("root_seed", 0)),
        "block_size": int(spec.get("block_size", DEFAULT_BLOCK_SIZE)),
        "blowup_threshold": float(spec.get(
            "blowup_threshold", IntegratorConfig.blowup_threshold)),
    }
    for key in ("n_paths", "block_size"):
        require_index("simulation." + key, sim[key])
    if sim["root_seed"] < 0:
        raise ValueError("simulation.root_seed must be an integer >= 0, "
                         "got %d" % sim["root_seed"])
    return sim
