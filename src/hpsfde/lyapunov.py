"""Numeric evaluation of the operator LV and the martingale residual test.

For a per-regime Lyapunov function V(x, t, i) the operator is

    LV(phi, t, i) = V_t(phi(1), t, i)
                  + V_x(phi(1), t, i) * f(phi, t, i)
                  + 1/2 * g(phi, t, i)^2 * V_xx(phi(1), t, i)
                  + sum_l rates[i, l] * V(phi(1), t, l).

V is restricted to even-power polynomials in |x| with nonnegative
coefficients (optionally carrying a scalar time weight), so all
derivatives are exact.

The residual test checks the identity

    E[V(x(t_end), t_end, r(t_end))] - E[V(x(t0), t0, r(t0))]
        = E[ integral_{t0}^{t_end} LV(x_s, s, r(s)) ds ]

on a simulated batch.  It holds exactly in law, so a z-score far from 0
(beyond the Euler scheme's O(dt) weak bias) indicates a bug in the
integrator, the coefficient model, or the LV implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import paths as paths_mod
from .errors import DimensionMismatch, InsufficientPaths
from .models import ModelSpec, _sum_terms


@dataclass(frozen=True)
class PolynomialV:
    """One regime's V as a polynomial with even powers and coeffs >= 0.

    ``time_weight`` is an optional (w, w') pair of callables; the value
    is w(t) * sum c x^p and the time derivative uses w'.
    """

    coeffs: Tuple[Tuple[int, float], ...]
    time_weight: Optional[Tuple[Callable, Callable]] = None

    def __init__(self, coeffs, time_weight=None):
        norm = []
        for p, c in coeffs:
            if float(p) != int(p) or int(p) < 0 or int(p) % 2 != 0:
                raise ValueError("V powers must be even nonnegative integers")
            if c < 0:
                raise ValueError("V coefficients must be nonnegative")
            norm.append((int(p), float(c)))
        if not norm or max(c for _, c in norm) <= 0:
            raise ValueError("V needs at least one positive coefficient")
        object.__setattr__(self, "coeffs", tuple(norm))
        object.__setattr__(self, "time_weight", time_weight)

    def _poly(self, x, shift: int = 0, factor=None):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for p, c in self.coeffs:
            q = p - shift
            if factor is not None:
                c = c * factor(p)
            if q < 0:
                continue
            out = out + c * x ** q
        return out

    def value(self, x, t):
        base = self._poly(x)
        if self.time_weight is None:
            return base
        return self.time_weight[0](t) * base

    def dx(self, x, t):
        base = self._poly(x, shift=1, factor=lambda p: p)
        if self.time_weight is None:
            return base
        return self.time_weight[0](t) * base

    def dxx(self, x, t):
        base = self._poly(x, shift=2, factor=lambda p: p * (p - 1))
        if self.time_weight is None:
            return base
        return self.time_weight[0](t) * base

    def dt(self, x, t):
        if self.time_weight is None:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return self.time_weight[1](t) * self._poly(x)


@dataclass(frozen=True)
class LyapunovFamily:
    """Per-regime V functions plus the comparison monomials U_0, U_k.

    U_0 and each U_k are |x|^p monomials; ``u0_power`` and ``u_powers``
    hold the exponents.  Construction verifies U_0 <= V on a sample grid
    and that every V is radially unbounded.  The upper comparison
    V <= U_1 is recorded in ``sandwich_upper_ok`` rather than enforced
    (pass strict=True to enforce it); see :func:`sandwich_report`.
    """

    regimes: Tuple[PolynomialV, ...]
    u0_power: int
    u_powers: Tuple[int, ...]
    strict: bool = False
    sandwich_upper_ok: bool = field(init=False, default=True, compare=False)

    def __post_init__(self):
        if not self.regimes:
            raise ValueError("need at least one regime V")
        if self.u0_power <= 0 or self.u0_power % 2 != 0:
            raise ValueError("u0_power must be a positive even integer")
        if not self.u_powers or any(p <= 0 or p % 2 for p in self.u_powers):
            raise ValueError("u_powers must be positive even integers")
        report = sandwich_report(self)
        if not report.lower_ok:
            raise ValueError(
                "U_0 <= V fails on the sample grid (worst gap %g at x=%g, "
                "regime %d)" % report.worst_lower)
        if self.strict and not report.upper_ok:
            raise ValueError(
                "V <= U_1 fails on the sample grid (worst gap %g at x=%g, "
                "regime %d)" % report.worst_upper)
        object.__setattr__(self, "sandwich_upper_ok", report.upper_ok)

    @property
    def n_regimes(self) -> int:
        return len(self.regimes)

    def value(self, x, t, i: int):
        return self.regimes[i - 1].value(x, t)

    def dx(self, x, t, i: int):
        return self.regimes[i - 1].dx(x, t)

    def dxx(self, x, t, i: int):
        return self.regimes[i - 1].dxx(x, t)

    def dt(self, x, t, i: int):
        return self.regimes[i - 1].dt(x, t)

    def u0(self, x):
        return np.abs(np.asarray(x, dtype=np.float64)) ** self.u0_power

    def u(self, k: int, x):
        return np.abs(np.asarray(x, dtype=np.float64)) ** self.u_powers[k - 1]


@dataclass(frozen=True)
class SandwichReport:
    """Grid check of U_0 <= V <= U_1.

    ``worst_lower``/``worst_upper`` are (gap, x, regime) with gap > 0
    meaning violation by that amount.
    """

    lower_ok: bool
    upper_ok: bool
    worst_lower: Tuple[float, float, int]
    worst_upper: Tuple[float, float, int]


def sandwich_report(fam: LyapunovFamily,
                    x_grid: Optional[np.ndarray] = None,
                    t_grid: Sequence[float] = (0.0, 1.0, 10.0)
                    ) -> SandwichReport:
    """Check the two-sided comparison on a grid of states and times."""
    if x_grid is None:
        x_grid = np.concatenate(([0.0], np.logspace(-3, 2, 26)))
    worst_lo = (0.0, 0.0, 1)
    worst_hi = (0.0, 0.0, 1)
    u0 = np.abs(x_grid) ** fam.u0_power
    u1 = np.abs(x_grid) ** fam.u_powers[0]
    for i in range(1, fam.n_regimes + 1):
        for t in t_grid:
            v = fam.value(x_grid, t, i)
            lo_gap = u0 - v
            hi_gap = v - u1
            j = int(np.argmax(lo_gap))
            if lo_gap[j] > worst_lo[0]:
                worst_lo = (float(lo_gap[j]), float(x_grid[j]), i)
            j = int(np.argmax(hi_gap))
            if hi_gap[j] > worst_hi[0]:
                worst_hi = (float(hi_gap[j]), float(x_grid[j]), i)
    return SandwichReport(lower_ok=worst_lo[0] <= 1e-12,
                          upper_ok=worst_hi[0] <= 1e-12,
                          worst_lower=worst_lo, worst_upper=worst_hi)


# ---------------------------------------------------------------------------
# Operator evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LVBreakdown:
    """Value of LV together with its four constituent parts."""

    value: float
    time_part: float
    drift_part: float
    diffusion_part: float
    coupling_part: float

    def __post_init__(self):
        total = (self.time_part + self.drift_part + self.diffusion_part
                 + self.coupling_part)
        if abs(total - self.value) > 1e-10 * max(1.0, abs(self.value)):
            raise ValueError("LV parts do not sum to the stated value")


def eval_LV(V: LyapunovFamily, m: ModelSpec, view, t: float,
            i: int) -> LVBreakdown:
    """Evaluate LV for a segment-like view at time t in regime i."""
    from .models import eval_diffusion, eval_drift
    if len(V.regimes) != m.n_regimes:
        raise DimensionMismatch(
            "V has %d regimes, model has %d" % (len(V.regimes), m.n_regimes))
    x = float(view.point)
    f = eval_drift(m, view, t, i)
    g = eval_diffusion(m, view, t, i)
    vt = float(V.dt(x, t, i))
    vxf = float(V.dx(x, t, i)) * f
    trace = 0.5 * g * g * float(V.dxx(x, t, i))
    rates = m.generator.rates[i - 1]
    coupling = float(sum(rates[l] * float(V.value(x, t, l + 1))
                         for l in range(m.n_regimes)))
    value = vt + vxf + trace + coupling
    return LVBreakdown(value=value, time_part=vt, drift_part=vxf,
                       diffusion_part=trace, coupling_part=coupling)


def lv_profile(V: LyapunovFamily, m: ModelSpec, path,
               t_end: Optional[float] = None):
    """LV along one path, its per-point values, and the time integral.

    Evaluates LV(x_s, s, r(s)) at every grid point of ``path`` in
    [t0, t_end] and integrates by trapezoid over each grid interval with
    that interval's regime (switch times are grid points, so the
    integrand is continuous inside every interval).

    Returns (times, values, integral).
    """
    if t_end is None:
        t_end = path.t_end
    tol = 1e-9 * max(1.0, abs(path.t_end))
    mask = (path.times >= path.t0 - tol) & (path.times <= t_end + tol)
    times = path.times[mask]
    x = path.values[mask]
    regimes = path.regimes[mask]
    n = m.n_regimes

    def phi_at(thetas):
        lookup = thetas[:, None] * times[None, :]
        return paths_mod.eval(path, lookup)

    lv = np.empty((n, len(times)))
    for i in range(1, n + 1):
        f = _sum_terms(m.drift[i - 1], x, phi_at, times)
        g = _sum_terms(m.diffusion[i - 1], x, phi_at, times)
        coupling = np.zeros_like(x)
        rates = m.generator.rates[i - 1]
        for l in range(n):
            coupling = coupling + rates[l] * V.value(x, times, l + 1)
        lv[i - 1] = (V.dt(x, times, i) + V.dx(x, times, i) * f
                     + 0.5 * g * g * V.dxx(x, times, i) + coupling)
    point_values = lv[regimes - 1, np.arange(len(times))]
    h = np.diff(times)
    r_int = regimes[:-1] - 1
    left = lv[r_int, np.arange(len(times) - 1)]
    right = lv[r_int, np.arange(1, len(times))]
    integral = float((0.5 * h * (left + right)).sum())
    return times, point_values, integral


# ---------------------------------------------------------------------------
# Martingale residual test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualStatistic:
    """Monte Carlo estimate of the hybrid Ito identity's residual.

    ``residual`` is the sample mean over paths of
    V(end) - V(start) - integral LV ds, ``stderr`` its standard error
    and ``z`` the plain ratio.  ``mean_integral`` supports an O(dt) bias
    allowance: :meth:`z_with_allowance` shrinks the residual by the
    allowance before standardizing.
    """

    residual: float
    stderr: float
    z: float
    mean_integral: float
    t_end: float
    n_paths_used: int
    n_excluded: int

    def z_with_allowance(self, allowance: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if abs(self.residual) <= allowance else np.inf
        return max(0.0, abs(self.residual) - abs(allowance)) / self.stderr


def martingale_residual(V: LyapunovFamily, batch, t_end: float
                        ) -> ResidualStatistic:
    """Run the hybrid Ito residual test on a simulated batch.

    Paths that exploded at or before t_end are excluded and counted.
    Requires the batch to retain full paths (keep_paths=True).

    Raises:
      InsufficientPaths: fewer than 100 usable paths.
    """
    if batch.paths is None:
        raise ValueError("batch was run without keep_paths=True")
    deltas = []
    integrals = []
    excluded = 0
    for path in batch.paths:
        if path.exploded_at is not None and path.exploded_at <= t_end:
            excluded += 1
            continue
        x_end = float(paths_mod.eval(path, t_end))
        idx = int(np.searchsorted(path.times, t_end, side="right")) - 1
        r_end = int(path.regimes[min(idx, len(path.regimes) - 1)])
        x0 = float(paths_mod.eval(path, path.t0))
        i0 = int(path.regimes[np.searchsorted(path.times, path.t0)])
        v_end = float(V.value(x_end, t_end, r_end))
        v0 = float(V.value(x0, path.t0, i0))
        _, _, integral = lv_profile(V, batch.model, path, t_end)
        deltas.append(v_end - v0 - integral)
        integrals.append(integral)
    if len(deltas) < 100:
        raise InsufficientPaths(
            "residual test needs >= 100 paths, have %d" % len(deltas))
    d = np.asarray(deltas)
    residual = float(d.mean())
    stderr = float(d.std(ddof=1) / np.sqrt(len(d)))
    if stderr == 0.0:
        z = 0.0 if residual == 0.0 else float(np.inf)
    else:
        z = residual / stderr
    return ResidualStatistic(residual=residual, stderr=stderr, z=z,
                             mean_integral=float(np.mean(integrals)),
                             t_end=float(t_end), n_paths_used=len(d),
                             n_excluded=excluded)
