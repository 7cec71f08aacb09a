"""Built-in model presets with matching Lyapunov data and certificates.

Three two-regime scalar systems ship with the package, each stressing a
different part of the theory:

  exp_stable
      Strongly damped regime 1, weakly expanding regime 2, all
      pantograph terms discounted by the exponential kernel with
      beta = 0.5 on theta_lower = 0.5.  Certified exponentially stable;
      the certificate supports rates up to 0.14.

  switch_stabilized
      Regime 2 alone reduces to dx = 0.08 x dt + 0.1 x dB, which blows
      up in second moment; the chain spends enough time in the damped
      regime 1 that the hybrid system is exponentially stable (rates up
      to ~0.211, kernel beta = 0.6, theta_lower = 0.7).

  poly_stable
      Kernel-free system on theta_lower = 0.75.  Without the decay
      kernel no exponential rate is certifiable; the polynomial
      certificate applies instead and the decay is measured against
      log(1 + t).

Each preset has one record: theta_lower, the kernel rate beta (None for
a kernel-free system), the generator rates, the per-regime V
coefficients, the comparison powers and the dissipation coefficient
rows.  The model (:func:`preset`, which adds the drift and diffusion
terms), its Lyapunov family (:func:`preset_lyapunov`), its coefficient
table (:func:`preset_certificate`) and :func:`default_measure` all read
that record, so each constant is typed once.  The rows stay typed by
hand until ROADMAP item 5 derives them from the model and V.

The measure feeding the pantograph integrals is an argument; by default
three equal atoms at {theta_lower, (theta_lower+1)/2, 1} exercise
genuine delayed lookups.  Where a preset pins a term to the point mass
at theta = 1 (the regime-2 terms of switch_stabilized and poly_stable),
that choice is fixed and not affected by the argument.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .certificates import CertificateData, CertificateRow
from .lyapunov import LyapunovFamily, PolynomialV
from .markov import make_generator
from .models import Kernel, Measure, ModelSpec, PantographTerm, PolynomialTerm

_Preset = namedtuple("_Preset", "theta_lower beta rates v_coeffs u0_power "
                     "u_powers rows")

_PRESETS = {
    "exp_stable": _Preset(
        theta_lower=0.5, beta=0.5, rates=((-1.0, 1.0), (2.0, -2.0)),
        v_coeffs=(((2, 1.0),), ((2, 2.0), (6, 2.0))),
        u0_power=2, u_powers=(2, 6),
        rows=(CertificateRow(a=1.8, b_alpha=((1.0, 0.5), (0.08, 0.0))),
              CertificateRow(a=3.4, b_alpha=((0.6, 5.0 / 6.0),
                                             (1.2, 2.0 / 3.0))))),
    "switch_stabilized": _Preset(
        theta_lower=0.7, beta=0.6, rates=((-1.0, 1.0), (3.0, -3.0)),
        v_coeffs=(((2, 1.0),), ((2, 2.0), (8, 3.0))),
        u0_power=2, u_powers=(2, 8),
        rows=(CertificateRow(a=2.64, b_alpha=((2.0, 0.5),)),
              CertificateRow(a=6.24, b_alpha=((0.25, 0.5),)))),
    "poly_stable": _Preset(
        theta_lower=0.75, beta=None, rates=((-1.0, 1.0), (4.0, -4.0)),
        v_coeffs=(((4, 1.0),), ((4, 2.0), (10, 3.0))),
        u0_power=4, u_powers=(4, 10),
        rows=(CertificateRow(a=3.32, b_alpha=((2.0, 0.75),)),
              CertificateRow(a=8.55, b_alpha=((0.24, 0.5),)))),
}

PRESET_NAMES = tuple(_PRESETS)
# the start time and the constant initial segment unless a caller sets them
DEFAULT_T0 = 1.0
DEFAULT_INITIAL = 0.5


def _record(name: str) -> _Preset:
    if name not in PRESET_NAMES:
        raise ValueError("unknown preset %r, choose from %s"
                         % (name, list(PRESET_NAMES)))
    return _PRESETS[name]


def default_measure(name: str) -> Measure:
    """Three equal atoms at theta_lower, the midpoint, and 1."""
    lo = _record(name).theta_lower
    mid = 0.5 * (lo + 1.0)
    return Measure.from_atoms([(lo, 1.0 / 3.0), (mid, 1.0 / 3.0),
                               (1.0, 1.0 / 3.0)])


def preset(name: str, nu_choice: Optional[Measure] = None,
           t0: float = DEFAULT_T0, initial=DEFAULT_INITIAL) -> ModelSpec:
    """Build one of the named models.

    Args:
      name: one of exp_stable, switch_stabilized, poly_stable.
      nu_choice: measure for the free pantograph integrals; default is
        :func:`default_measure` for the preset.
      t0: start time (> 0).
      initial: initial segment (a constant or a (times, values) table).
    """
    rec = _record(name)
    nu = nu_choice if nu_choice is not None else default_measure(name)
    kern = None if rec.beta is None else Kernel(rec.beta)
    delta_1 = Measure.point_mass(1.0)

    if name == "exp_stable":
        drift = (
            (PolynomialTerm([(1, -5.0), (3, -5.0), (5, -5.0)]),
             PantographTerm(coeff=0.5, measure=nu, kernel=kern)),
            (PolynomialTerm([(1, 0.05)]),
             PantographTerm(coeff=0.05, measure=nu, kernel=kern)),
        )
        diffusion = (
            (PantographTerm(coeff=0.5, measure=nu, kernel=kern,
                            point_exponent=2.0),),
            (PantographTerm(coeff=0.2, measure=nu, kernel=kern),),
        )
    elif name == "switch_stabilized":
        drift = (
            (PolynomialTerm([(1, -6.0), (3, -6.0), (7, -6.0)]),
             PantographTerm(coeff=1.0, measure=nu, kernel=kern,
                            signed=True)),
            (PolynomialTerm([(1, 0.04)]),
             PantographTerm(coeff=0.04, measure=delta_1, kernel=kern,
                            signed=True)),
        )
        diffusion = (
            (PantographTerm(coeff=0.5, measure=nu, kernel=kern,
                            point_exponent=2.0, delay_exponent=2.0),),
            (PantographTerm(coeff=0.1, measure=delta_1, kernel=kern,
                            signed=True),),
        )
    else:  # poly_stable: kernel-free
        drift = (
            (PolynomialTerm([(1, -6.0), (3, -6.0), (7, -6.0)]),
             PantographTerm(coeff=0.5, measure=nu, signed=True)),
            (PolynomialTerm([(1, 0.04)]),
             PantographTerm(coeff=0.03, measure=delta_1, signed=True)),
        )
        diffusion = (
            (PantographTerm(coeff=0.2, measure=nu, point_exponent=1.5,
                            delay_exponent=2.5),),
            (PantographTerm(coeff=0.1, measure=delta_1),),
        )
    return ModelSpec(theta_lower=rec.theta_lower, t0=t0,
                     generator=make_generator(rec.rates), drift=drift,
                     diffusion=diffusion, initial_segment=initial)


def preset_lyapunov(name: str) -> LyapunovFamily:
    """The per-regime V functions and comparison monomials for a preset."""
    rec = _record(name)
    return LyapunovFamily(
        regimes=tuple(PolynomialV(c) for c in rec.v_coeffs),
        u0_power=rec.u0_power, u_powers=rec.u_powers)


def preset_certificate(name: str, t0: float = DEFAULT_T0) -> CertificateData:
    """The dissipation coefficient table for a preset."""
    rec = _record(name)
    return CertificateData(a0=0.0, rows=rec.rows,
                           theta_lower=rec.theta_lower, t0=t0, beta=rec.beta)
