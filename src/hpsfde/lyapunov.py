"""Numeric evaluation of the operator LV and the martingale residual test.

For a per-regime Lyapunov function V(x, i) the operator is

    LV(phi, t, i) = V_x(phi(1), i) * f(phi, t, i)
                  + 1/2 * g(phi, t, i)^2 * V_xx(phi(1), i)
                  + sum_l rates[i, l] * V(phi(1), l),

its drift, diffusion and coupling parts.  V is restricted to time-free
even-power polynomials in |x| with nonnegative coefficients, so all
derivatives are exact, and one function writes out the sum for a single
segment and for every node of a path alike.

The residual test checks the identity

    E[V(x(t_end), r(t_end))] - E[V(x(t0), r(t0))]
        = E[ integral_{t0}^{t_end} LV(x_s, s, r(s)) ds ]

on a simulated batch.  It holds exactly in law, so a z-score far from 0
(beyond the Euler scheme's O(dt) weak bias) indicates a bug in the
integrator, the coefficient model, or the LV implementation.

The integral runs by trapezoid over each path's grid on [t0, t_end]; a
t_end between two grid points closes it with the interpolated endpoint
(t_end, x(t_end)).  One routine evaluates LV along a chunk of paths in a
single array pass, with a fixed bound on the nodes a chunk holds: the
residual runs it chunk by chunk, and :func:`lv_profile` is its one-path
case.  Each path's integral is summed over its own nodes, so results do
not depend on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import paths as paths_mod
from .errors import DimensionMismatch, InsufficientPaths, require_finite
from .estimators import standard_error
from .models import ModelSpec, _cached, _one_row, _Pass


@dataclass(frozen=True)
class PolynomialV:
    """One regime's V as a polynomial with even powers and coeffs >= 0."""

    coeffs: Tuple[Tuple[int, float], ...]

    def __init__(self, coeffs):
        norm = []
        for p, c in coeffs:
            if float(p) != int(p) or int(p) < 0 or int(p) % 2 != 0:
                raise ValueError("V powers must be even nonnegative integers")
            require_finite(coeff=c)
            if c < 0:
                raise ValueError("V coefficients must be nonnegative")
            norm.append((int(p), float(c)))
        if not norm or max(c for _, c in norm) <= 0:
            raise ValueError("V needs at least one positive coefficient")
        object.__setattr__(self, "coeffs", tuple(norm))

    def _derivative(self, x, shift: int):
        """The shift-th x-derivative of V at x."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for p, c in self.coeffs:
            if p >= shift:
                out = out + c * math.perm(p, shift) * x ** (p - shift)
        return out

    def value(self, x):
        return self._derivative(x, 0)

    def dx(self, x):
        return self._derivative(x, 1)

    def dxx(self, x):
        return self._derivative(x, 2)


@dataclass(frozen=True)
class LyapunovFamily:
    """Per-regime V functions plus the comparison monomials U_0, U_k.

    U_0 and each U_k are |x|^p monomials; ``u0_power`` and ``u_powers``
    hold the exponents.  Construction rejects a family in which some
    regime's V has no power >= ``u0_power`` with a positive coefficient,
    since then U_0 > V for all large |x|, and otherwise checks U_0 <= V
    on a sample grid (see :func:`sandwich_report`).
    """

    regimes: Tuple[PolynomialV, ...]
    u0_power: int
    u_powers: Tuple[int, ...]

    def __post_init__(self):
        if not self.regimes:
            raise ValueError("need at least one regime V")
        if self.u0_power <= 0 or self.u0_power % 2 != 0:
            raise ValueError("u0_power must be a positive even integer")
        if not self.u_powers or any(p <= 0 or p % 2 for p in self.u_powers):
            raise ValueError("u_powers must be positive even integers")
        for i, V in enumerate(self.regimes, 1):
            top = max(p for p, c in V.coeffs if c > 0)
            if top < self.u0_power:
                raise ValueError(
                    "U_0 <= V fails for large |x|: regime %d's highest "
                    "power with a positive coefficient is %d, below "
                    "u0_power %d" % (i, top, self.u0_power))
        report = sandwich_report(self)
        if not report.lower_ok:
            raise ValueError(
                "U_0 <= V fails on the sample grid (worst gap %g at x=%g, "
                "regime %d)" % report.worst_lower)

    @property
    def n_regimes(self) -> int:
        return len(self.regimes)

    def value(self, x, i: int):
        return self.regimes[i - 1].value(x)

    def dx(self, x, i: int):
        return self.regimes[i - 1].dx(x)

    def dxx(self, x, i: int):
        return self.regimes[i - 1].dxx(x)


@dataclass(frozen=True)
class SandwichReport:
    """Grid check of the lower comparison U_0 <= V.

    ``worst_lower`` is (gap, x, regime) with gap > 0 meaning violation
    by that amount.
    """

    lower_ok: bool
    worst_lower: Tuple[float, float, int]


def sandwich_report(fam: LyapunovFamily) -> SandwichReport:
    """Check U_0 <= V in every regime on a fixed grid of states.

    The states are 0 and 26 log-spaced points from 1e-3 to 100.
    """
    x_grid = np.concatenate(([0.0], np.logspace(-3, 2, 26)))
    worst = (0.0, 0.0, 1)
    u0 = np.abs(x_grid) ** fam.u0_power
    for i in range(1, fam.n_regimes + 1):
        gap = u0 - fam.value(x_grid, i)
        j = int(np.argmax(gap))
        if gap[j] > worst[0]:
            worst = (float(gap[j]), float(x_grid[j]), i)
    return SandwichReport(lower_ok=worst[0] <= 1e-12, worst_lower=worst)


# ---------------------------------------------------------------------------
# Operator evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LVBreakdown:
    """Value of LV together with its drift, diffusion and coupling parts."""

    value: float
    drift_part: float
    diffusion_part: float
    coupling_part: float

    def __post_init__(self):
        total = self.drift_part + self.diffusion_part + self.coupling_part
        if abs(total - self.value) > 1e-10 * max(1.0, abs(self.value)):
            raise ValueError("LV parts do not sum to the stated value")


def _check_regimes(V: LyapunovFamily, m: ModelSpec) -> None:
    if V.n_regimes != m.n_regimes:
        raise DimensionMismatch(
            "V has %d regimes, model has %d" % (V.n_regimes, m.n_regimes))


def _lv_parts(V: LyapunovFamily, m: ModelSpec, ev: _Pass, x, v, i: int):
    """LV's drift, diffusion and coupling parts in regime i at states x.

    ``ev`` is a coefficient pass at x and ``v[l]`` is V(x, l + 1).
    """
    f, g = ev.regime(i)
    coupling = np.zeros_like(x)
    rates = m.generator.rates[i - 1]
    for l in range(m.n_regimes):
        coupling = coupling + rates[l] * v[l]
    return V.dx(x, i) * f, 0.5 * g * g * V.dxx(x, i), coupling


def eval_LV(V: LyapunovFamily, m: ModelSpec, view, t: float,
            i: int) -> LVBreakdown:
    """Evaluate LV for a segment-like view at time t in regime i."""
    _check_regimes(V, m)
    x = float(view.point)
    v = [V.value(x, l + 1) for l in range(m.n_regimes)]
    drift, diffusion, coupling = (
        float(part) for part in _lv_parts(V, m, _one_row(m, view, t, i),
                                          x, v, i))
    return LVBreakdown(value=drift + diffusion + coupling, drift_part=drift,
                       diffusion_part=diffusion, coupling_part=coupling)


# Upper bound on the nodes that one pass of LV along paths holds.  The
# history lookup builds (quadrature nodes x chunk nodes) arrays, so one
# pass over a whole batch would multiply the peak memory of the check.
_CHUNK_NODES = 1 << 14


def _path_nodes(path, t_end: float):
    """The nodes of ``path`` on [t0, t_end] and the states at both ends.

    Returns (times, x, regimes, ends), where ends is (x(t0), r(t0),
    x(t_end), r(t_end)).  A t_end further than the grid tolerance from
    every node closes the last interval with the node (t_end, x(t_end)),
    which carries the regime of the node before it.
    """
    times = path.times
    tol = paths_mod._atol(path.t_end)
    a = int(np.searchsorted(times, path.t0 - tol, side="left"))
    b = int(np.searchsorted(times, t_end + tol, side="right"))
    if b <= a:
        raise ValueError("t_end=%g is before t0=%g" % (t_end, path.t0))
    t, x, r = times[a:b], path.values[a:b], path.regimes[a:b]
    # at a node, paths.eval returns the node's own value
    x0 = x[0] if t[0] == path.t0 else paths_mod.eval(path, path.t0)
    x_end = x[-1] if t[-1] == t_end else paths_mod.eval(path, t_end)
    ends = (float(x0), int(path.regimes[np.searchsorted(times, path.t0)]),
            float(x_end),
            int(path.regimes[np.searchsorted(times, t_end, side="right") - 1]))
    if t[-1] < t_end - tol:
        t = np.append(t, t_end)
        x = np.append(x, x_end)
        r = np.append(r, r[-1])
    return t, x, r, ends


def _history(paths, offsets, times, x):
    """Callback giving x(theta * s) of its own path at every chunk node s.

    Path k's nodes are ``times[offsets[k]:offsets[k + 1]]`` with states
    ``x[offsets[k]:offsets[k + 1]]``.  The callback maps a theta vector
    to one row per theta, looked up by ``paths.eval`` on each path;
    theta == 1 takes the node's own state, which is what eval returns.
    The lookup runs under ``models._cached``, so terms sharing a theta
    set share its rows, which are read-only.
    """
    def lookup(thetas):
        rows = np.empty((len(thetas), len(times)))
        own = thetas == 1.0
        rows[own] = x
        if not own.all():
            delayed = thetas[~own, None]
            for path, c, d in zip(paths, offsets[:-1], offsets[1:]):
                rows[~own, c:d] = paths_mod.eval(path, delayed * times[c:d])
        return rows

    return _cached(lookup)


def _lv_chunk(V: LyapunovFamily, m: ModelSpec, paths, t_end: float):
    """LV along several paths on [t0, t_end] in one array pass.

    The paths' nodes are concatenated; ``offsets[k]:offsets[k + 1]``
    is path k's slice.  Each regime's coefficients are evaluated once
    over the whole chunk, all regimes in one pass of the model's plan,
    so each pantograph integral is computed once per chunk and the
    history lookup once per distinct quadrature-node set.  Each interval is integrated by trapezoid in
    the regime of its left node (switch times are nodes, so LV is
    continuous inside every interval), and each path's integral is the
    sum over its own slice, so it does not depend on the chunk.

    Returns (times, point_values, integrals, ends, part_sums): ends
    holds each path's (x(t0), r(t0), x(t_end), r(t_end)), and part_sums
    the chunk's summed integrals of the drift, diffusion and coupling
    parts.
    """
    _check_regimes(V, m)
    node_t, node_x, node_r, ends = zip(*[_path_nodes(path, t_end)
                                         for path in paths])
    offsets = np.cumsum([0] + [len(t) for t in node_t])
    times = np.concatenate(node_t)
    x = np.concatenate(node_x)
    regimes = np.concatenate(node_r)
    phi_at = _history(paths, offsets, times, x)
    n = m.n_regimes
    size = len(times)
    v = [V.value(x, l + 1) for l in range(n)]
    # parts[k, i - 1]: LV's drift, diffusion and coupling parts in
    # regime i at every node
    parts = np.empty((3, n, size))
    ev = _Pass(m, x, phi_at, times)
    for i in range(1, n + 1):
        parts[:, i - 1] = _lv_parts(V, m, ev, x, v, i)
    parts = parts.reshape(3, n * size)
    lv = parts[0] + parts[1] + parts[2]
    h = np.diff(times)
    # no interval joins one path's last node to the next path's first
    h[offsets[1:-1] - 1] = 0.0
    half = 0.5 * h
    # flat (regime, node) index of each interval's left end, in the
    # interval's regime
    left = (regimes[:-1] - 1) * size + np.arange(size - 1)
    point_values = lv[(regimes - 1) * size + np.arange(size)]
    trapezoids = half * (lv[left] + lv[left + 1])
    integrals = [float(trapezoids[start:stop - 1].sum())
                 for start, stop in zip(offsets[:-1], offsets[1:])]
    part_sums = (half * (parts[:, left] + parts[:, left + 1])).sum(axis=1)
    return times, point_values, integrals, ends, part_sums


def lv_profile(V: LyapunovFamily, m: ModelSpec, path,
               t_end: Optional[float] = None):
    """LV along one path, its per-point values, and the time integral.

    Evaluates LV(x_s, s, r(s)) at every grid point of ``path`` in
    [t0, t_end] and integrates by trapezoid over each grid interval with
    that interval's regime (switch times are grid points, so the
    integrand is continuous inside every interval).  A t_end between
    grid points adds the interpolated endpoint (t_end, x(t_end)).

    Returns (times, values, integral).
    """
    if t_end is None:
        t_end = path.t_end
    times, values, integrals, _, _ = _lv_chunk(V, m, [path], t_end)
    return times, values, integrals[0]


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
    allowance before standardizing.  ``parts`` splits the mean integral
    into LV's drift, diffusion and coupling parts; its ``value`` is
    their sum, equal to ``mean_integral`` up to rounding.
    """

    residual: float
    stderr: float
    z: float
    mean_integral: float
    t_end: float
    n_paths_used: int
    n_excluded: int
    parts: Optional[LVBreakdown] = None

    def z_with_allowance(self, allowance: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if abs(self.residual) <= allowance else np.inf
        return max(0.0, abs(self.residual) - abs(allowance)) / self.stderr


def _chunks(paths):
    """Consecutive runs of paths holding at most _CHUNK_NODES nodes each.

    A path longer than the bound makes a chunk of its own.
    """
    chunk, size = [], 0
    for path in paths:
        if chunk and size + len(path.times) > _CHUNK_NODES:
            yield chunk
            chunk, size = [], 0
        chunk.append(path)
        size += len(path.times)
    if chunk:
        yield chunk


def martingale_residual(V: LyapunovFamily, batch, t_end: float
                        ) -> ResidualStatistic:
    """Run the hybrid Ito residual test on a simulated batch.

    Paths that exploded at or before t_end are excluded and counted.
    Requires the batch to retain full paths (keep_paths=True).  LV is
    evaluated over chunks of paths at once; a t_end between grid points
    closes each path's integral at the interpolated state x(t_end).

    Raises:
      InsufficientPaths: fewer than 100 usable paths.
    """
    if batch.paths is None:
        raise ValueError("batch was run without keep_paths=True")
    kept = [path for path in batch.paths
            if path.exploded_at is None or path.exploded_at > t_end]
    if len(kept) < 100:
        raise InsufficientPaths(
            "residual test needs >= 100 paths, have %d" % len(kept))
    deltas = []
    integrals = []
    part_sums = np.zeros(3)
    for chunk in _chunks(kept):
        _, _, chunk_integrals, ends, chunk_parts = _lv_chunk(
            V, batch.model, chunk, t_end)
        part_sums += chunk_parts
        for path, (x0, i0, x_end, r_end), integral in zip(
                chunk, ends, chunk_integrals):
            deltas.append(float(V.value(x_end, r_end))
                          - float(V.value(x0, i0)) - integral)
        integrals.extend(chunk_integrals)
    d = np.asarray(deltas)
    residual = float(d.mean())
    stderr = standard_error(d)
    if stderr == 0.0:
        z = 0.0 if residual == 0.0 else float(np.inf)
    else:
        z = residual / stderr
    drift_part, diffusion_part, coupling_part = (
        float(s) / len(d) for s in part_sums)
    parts = LVBreakdown(value=drift_part + diffusion_part + coupling_part,
                        drift_part=drift_part, diffusion_part=diffusion_part,
                        coupling_part=coupling_part)
    return ResidualStatistic(residual=residual, stderr=stderr, z=z,
                             mean_integral=float(np.mean(integrals)),
                             t_end=float(t_end), n_paths_used=len(d),
                             n_excluded=len(batch.paths) - len(kept),
                             parts=parts)
