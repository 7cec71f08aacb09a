"""JSON experiment configuration: loading and object construction.

An experiment file is one JSON object with up to five sections:

  model        preset name (plus options), or an explicit description:
               theta_lower, t0, generator (array of arrays, row-major),
               initial data, optional shared measure/kernel, and
               per-regime drift/diffusion term lists.
  simulation   dt, T, n_paths, i0, root_seed, workers, block_size,
               keep_paths, blowup_threshold.
  output       moments to tabulate, whether to dump per-path CSVs.
  lyapunov     preset name or explicit per-regime polynomial V, the
               comparison powers, and the horizon for residual checks.
  certificate  preset name or an explicit coefficient table, which
               checks to run, and an optional candidate epsilon.

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
from .lyapunov import LyapunovFamily, PolynomialV
from .markov import make_generator
from .models import (Kernel, Measure, ModelSpec, PantographTerm,
                     PolynomialTerm)
from .presets import preset, preset_certificate, preset_lyapunov


def _reject_constant(name):
    raise ValueError("%s is not a JSON number" % name)


def load_config(path) -> dict:
    """Read one experiment file; accepts a path or an open text file.

    NaN and Infinity literals, which Python's json module would accept,
    are rejected: JSON has no such numbers.
    """
    if hasattr(path, "read"):
        return json.load(path, parse_constant=_reject_constant)
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def build_measure(spec) -> Measure:
    """Measure from its JSON form.

    Forms: {"kind": "atoms", "atoms": [[theta, weight], ...]},
    {"kind": "point", "theta": th}, {"kind": "uniform", "lo": a,
    "hi": b, "nodes": n}, {"kind": "density", "edges": [...],
    "values": [...], "nodes": n}.
    """
    kind = spec.get("kind", "atoms")
    if kind == "atoms":
        return Measure.from_atoms([(a[0], a[1]) for a in spec["atoms"]])
    if kind == "point":
        return Measure.point_mass(spec.get("theta", 1.0))
    if kind == "uniform":
        return Measure.uniform(spec["lo"], spec["hi"],
                               nodes=int(spec.get("nodes", 64)))
    if kind == "density":
        return Measure.piecewise_density(spec["edges"], spec["values"],
                                         nodes=int(spec.get("nodes", 64)))
    raise ValueError("unknown measure kind %r" % (kind,))


def _build_term(spec, shared_measure: Optional[Measure],
                shared_kernel: Optional[Kernel]):
    kind = spec["type"]
    if kind == "polynomial":
        return PolynomialTerm([(int(p), float(c)) for p, c in spec["coeffs"]])
    if kind == "pantograph":
        mspec = spec.get("measure", "shared")
        if mspec == "shared":
            if shared_measure is None:
                raise ValueError(
                    "term requests the shared measure but none is defined")
            measure = shared_measure
        else:
            measure = build_measure(mspec)
        kspec = spec.get("kernel", False)
        if kspec is True:
            kernel = shared_kernel
        elif kspec in (False, None):
            kernel = None
        else:
            kernel = Kernel.linear(float(kspec["beta"]))
        return PantographTerm(
            coeff=float(spec["coeff"]), measure=measure, kernel=kernel,
            point_exponent=float(spec.get("point_exponent", 0.0)),
            delay_exponent=float(spec.get("delay_exponent", 1.0)),
            signed=bool(spec.get("signed", False)))
    raise ValueError("unknown term type %r" % (kind,))


def build_model(cfg: dict) -> ModelSpec:
    """ModelSpec from the ``model`` section of a config.

    The state is scalar: an optional ``"dim"`` key must be 1.
    """
    spec = cfg.get("model", {})
    if spec.get("dim", 1) != 1:
        raise ValueError('model "dim" must be 1 (the state is scalar), got %r'
                         % (spec["dim"],))
    shared_measure = (build_measure(spec["measure"])
                      if "measure" in spec else None)
    t0 = float(spec.get("t0", 1.0))
    initial = _initial_from(spec.get("initial", 0.5))
    name = spec.get("preset")
    if name is not None:
        return preset(name, nu_choice=shared_measure, t0=t0, initial=initial)
    shared_kernel = (Kernel.linear(float(spec["kernel"]["beta"]))
                     if "kernel" in spec else None)

    def terms(regime_list):
        return tuple(
            tuple(_build_term(t, shared_measure, shared_kernel)
                  for t in one_regime)
            for one_regime in regime_list)

    return ModelSpec(
        theta_lower=float(spec["theta_lower"]), t0=t0,
        generator=make_generator(spec["generator"]),
        drift=terms(spec["drift"]),
        diffusion=terms(spec["diffusion"]),
        initial_segment=initial)


def _initial_from(spec):
    if isinstance(spec, dict):
        return (tuple(spec["times"]), tuple(spec["values"]))
    return float(spec)


def build_lyapunov(cfg: dict) -> LyapunovFamily:
    """LyapunovFamily from the ``lyapunov`` section (or model preset)."""
    spec = cfg.get("lyapunov", {})
    name = spec.get("preset", cfg.get("model", {}).get("preset"))
    if "regimes" not in spec:
        if name is None:
            raise ValueError("lyapunov section needs a preset or regimes")
        return preset_lyapunov(name)
    regimes = tuple(
        PolynomialV([(int(p), float(c)) for p, c in coeffs])
        for coeffs in spec["regimes"])
    return LyapunovFamily(
        regimes=regimes, u0_power=int(spec["u0_power"]),
        u_powers=tuple(int(p) for p in spec["u_powers"]),
        strict=bool(spec.get("strict", False)))


def build_certificate(cfg: dict) -> CertificateData:
    """CertificateData from the ``certificate`` section (or model preset)."""
    spec = cfg.get("certificate", {})
    name = spec.get("preset", cfg.get("model", {}).get("preset"))
    if "rows" not in spec:
        if name is None:
            raise ValueError("certificate section needs a preset or rows")
        t0 = float(cfg.get("model", {}).get("t0", 1.0))
        return preset_certificate(name, t0=t0)
    rows = tuple(
        CertificateRow(a=float(r["a"]),
                       b_alpha=tuple((float(b), float(al))
                                     for b, al in r["b_alpha"]))
        for r in spec["rows"])
    beta = spec.get("beta")
    return CertificateData(
        a0=float(spec.get("a0", 0.0)), rows=rows,
        theta_lower=float(spec["theta_lower"]),
        t0=float(spec.get("t0", cfg.get("model", {}).get("t0", 1.0))),
        beta=None if beta is None else float(beta),
        u0_power=int(spec.get("u0_power", 2)),
        moment_powers=tuple(int(p) for p in spec.get("moment_powers", ())))


def simulation_params(cfg: dict) -> dict:
    """Normalized ``simulation`` section with defaults filled in."""
    spec = cfg.get("simulation", {})
    if "dt" not in spec or "T" not in spec:
        raise ValueError("simulation section must set dt and T")
    block_size = int(spec.get("block_size", 1024))
    if block_size < 1:
        raise ValueError("simulation.block_size must be >= 1, got %d"
                         % block_size)
    return {
        "dt": float(spec["dt"]),
        "T": float(spec["T"]),
        "n_paths": int(spec.get("n_paths", 100)),
        "i0": int(spec.get("i0", 1)),
        "root_seed": int(spec.get("root_seed", 0)),
        "workers": int(spec.get("workers", 1)),
        "block_size": block_size,
        "keep_paths": bool(spec.get("keep_paths", False)),
        "blowup_threshold": float(spec.get("blowup_threshold", 1e8)),
    }
