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

The integral runs by trapezoid over each path's nodes on [t0, t_end]; a
t_end between two nodes closes it with the interpolated endpoint
(t_end, x(t_end)).  One routine evaluates LV along the rows of a batch's
path store (``paths.PathStore``) without building a path: it reads the
grid values and the switch-node table directly, in passes over blocks
of rows with a fixed bound on the nodes a block holds, and the delayed
lookups of the grid nodes share tables compiled once per batch.
:func:`lv_profile` is its one-row case.  Each path's integral sums its
own trapezoids in time order, so results do not depend on the blocks.

A grid node's delayed lookup reads through the row's switch nodes when
its piece holds some, which is the rule of ``paths.PathStore``; the
integrator's uniform step at the same grid time reads grid nodes only.
So at such nodes the f in LV is not the f of the Euler step: on 1000
paths at dt=1e-3 on [1, 2] (seed 1), 3252 of 3412 such lookups differ
on switch_stabilized, 579 of 754 on exp_stable and 3534 of 4190 on
poly_stable, by up to 2.7e-3 in the delayed state.  A martingale
compensator built from the Euler increments, g_k dW_k = x_{k+1} - x_k
- f_k h_k, must therefore evaluate f_k by the integrator's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import paths as paths_mod
from .errors import (DimensionMismatch, InsufficientPaths, OutOfDomain,
                     require_finite, require_index)
from .estimators import standard_error
from .models import THETA_TOL, ModelSpec, _Pass, _polynomial, _power


@dataclass(frozen=True)
class PolynomialV:
    """One regime's V as a polynomial with even powers and coeffs >= 0."""

    coeffs: Tuple[Tuple[int, float], ...]

    def __init__(self, coeffs):
        norm = []
        for p, c in coeffs:
            p = _power(p, even=True)
            require_finite(coeff=c)
            if c < 0:
                raise ValueError("V coefficients must be nonnegative")
            norm.append((p, float(c)))
        if not norm or max(c for _, c in norm) <= 0:
            raise ValueError("V needs at least one positive coefficient")
        object.__setattr__(self, "coeffs", tuple(norm))

    def value(self, x):
        return _polynomial(self.coeffs, x)

    def dx(self, x):
        return _polynomial(self.coeffs, x, 1)

    def dxx(self, x):
        return _polynomial(self.coeffs, x, 2)


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


def _lv_table(V: LyapunovFamily, m: ModelSpec, ev: _Pass, x):
    """LV's drift, diffusion and coupling parts at the states x in every
    regime, regime 1 first; ``ev`` is a coefficient pass at x."""
    v = [V.value(x, l + 1) for l in range(m.n_regimes)]
    table = []
    for i in range(1, m.n_regimes + 1):
        f, g = ev.regime(i)
        coupling = np.zeros_like(x)
        for rate, v_l in zip(m.generator.rates[i - 1], v):
            coupling = coupling + rate * v_l
        table.append((V.dx(x, i) * f, 0.5 * g * g * V.dxx(x, i), coupling))
    return table


def eval_LV(V: LyapunovFamily, m: ModelSpec, view, t: float,
            i: int) -> LVBreakdown:
    """Evaluate LV for a segment-like view at time t in regime i.

    ``view`` provides ``point``, the current state, and maps a theta
    vector to the delayed states, as :class:`paths.ConstantSegment` does.
    """
    _check_regimes(V, m)
    require_index("regime", i, m.n_regimes)
    x = float(view.point)
    ev = _Pass(m, x, lambda th: np.asarray(view(th), dtype=np.float64), t)
    parts = _lv_table(V, m, ev, x)[i - 1]
    drift, diffusion, coupling = (float(part) for part in parts)
    return LVBreakdown(value=drift + diffusion + coupling, drift_part=drift,
                       diffusion_part=diffusion, coupling_part=coupling)


# Upper bound on the nodes that one pass of LV along paths holds.  The
# history lookup builds (quadrature nodes x block nodes) arrays, so one
# pass over a whole batch would multiply the peak memory of the check.
# A block takes as many rows as fit when each has the most nodes of any.
_CHUNK_NODES = 1 << 14


def require_t_end(t_end, t0: float, T: float, name: str = "t_end") -> None:
    """ValueError unless t0 < t_end <= T, T within the grid tolerance."""
    t_end = float(t_end)
    if t0 < t_end <= T + paths_mod._atol(T):
        return
    why = ("not a number" if math.isnan(t_end) else "before t0"
           if t_end < t0 else "t0 itself" if t_end == t0 else "past T")
    raise ValueError("%s must lie in (t0, T] = (%g, %g], got %r, which is %s"
                     % (name, t0, T, t_end, why))


class _LVAlong:
    """LV along the rows ``rows`` (ascending) of a path store on [t0, t_end].

    A row's nodes are its grid and switch nodes up to t_end, within the
    grid tolerance at T, in time order.  When the last of them lies
    further than the tolerance before t_end, the node (t_end, x(t_end))
    closes the row; it carries the regime of the node before it.
    ``x_end`` and ``r_end`` are each row's state at t_end and the regime
    of its last node at or before t_end.

    LV runs in two kinds of pass.  The grid nodes of a block of rows
    (``blocks`` lists them as (lo, hi) ranges of ``rows``) make one
    pass; its delayed lookups read each theta set's grid pieces and
    weights (1 - w, w), compiled once for the store, and recompute only
    the (row, node) pairs whose piece holds switch nodes of the row.
    The switch and closing nodes of all rows make one pass of their own.
    The kernel weights come from the model's plan once per grid time.
    """

    def __init__(self, V: LyapunovFamily, m: ModelSpec, store, rows,
                 t_end: float):
        _check_regimes(V, m)
        self.V, self.m, self.store, self.rows = V, m, store, rows
        times = store.times
        tol = paths_mod._atol(times[-1])
        self.n_g = n_g = int(np.searchsorted(times, t_end + tol,
                                             side="right"))
        # a kept row lacks a grid node on [t0, t_end] only when it
        # exploded within the tolerance after t_end: then it is the last
        grid_n = n_g - np.isnan(store.values[rows, n_g - 1])
        self.kept = np.zeros(len(store), dtype=bool)
        self.kept[rows] = True
        sel = np.flatnonzero(self.kept[store.node_row]
                             & (store.node_time <= t_end + tol))
        self.sw_pos = np.searchsorted(rows, store.node_row[sel])
        self.sw_step = np.searchsorted(times, store.node_time[sel],
                                       side="right") - 1
        q = np.bincount(self.sw_pos, minlength=len(rows))
        first = np.cumsum(q) - q
        self.sw_rank = np.arange(len(sel)) - first[self.sw_pos]

        # each row's last node, and whether t_end closes the row
        last_t = times[grid_n - 1]
        last_x = store.values[rows, grid_n - 1]
        last_r = store.regimes[rows, grid_n - 1].astype(np.int64)
        has = np.flatnonzero(q)
        s = sel[first[has] + q[has] - 1]
        later = store.node_time[s] > last_t[has]
        has, s = has[later], s[later]
        last_t[has] = store.node_time[s]
        last_x[has] = store.node_value[s]
        last_r[has] = store.node_regime[s]
        close = last_t < t_end - tol
        self.end_pos = np.flatnonzero(close)
        self.counts = grid_n + q + close
        self.grid_n = grid_n

        # at a node x(t_end) is the node's state; between nodes it is
        # interpolated, at T past the end of the grid
        t = np.full(len(rows), min(t_end, times[-1]))
        t_l, x_l, r_l, t_r, x_r = store._around(rows, t)
        self.x_end = np.where(last_t == t_end, last_x,
                              paths_mod._lerp(t, t_l, t_r, x_l, x_r))
        self.r_end = (store.regimes[rows, -1] if t_end >= times[-1]
                      else r_l)

        size = max(1, _CHUNK_NODES // int(self.counts.max()))
        self.blocks = [(lo, min(lo + size, len(rows)))
                       for lo in range(0, len(rows), size)]

        # one pass over the switch nodes, then the closing nodes
        sp_row = np.concatenate((store.node_row[sel], rows[close]))
        sp_t = np.concatenate((store.node_time[sel],
                               np.full(len(self.end_pos), t_end)))
        sp_x = np.concatenate((store.node_value[sel], self.x_end[close]))
        self.sp_t = sp_t
        self.sp_r = np.concatenate((store.node_regime[sel], last_r[close]))

        def sparse(thetas):
            tq, own = self._delayed(thetas, sp_t[None, :])
            out = np.empty((len(thetas), len(sp_t)))
            out[own] = sp_x
            out[~own] = store._eval(np.tile(sp_row, len(tq)),
                                     tq.ravel()).reshape(tq.shape)
            return out

        ev = _Pass(m, sp_x, sparse, sp_t, m._plan.weights(sp_t))
        self.sp_parts = np.array(_lv_table(V, m, ev, sp_x))
        self.w_grid = m._plan.weights(times[:n_g])
        self._tables = {}

    def _delayed(self, thetas, t):
        """The lookup times theta * t of the thetas other than 1.

        A theta below the store's theta_lower by more than ``THETA_TOL``
        raises OutOfDomain, as does a lookup before the paths start.
        Only a path that :func:`lv_profile` reads reaches either: one with
        a larger theta_lower than the model's, or one without its initial
        segment.  ``ModelSpec`` keeps every theta at most 1 + ``THETA_TOL``.
        The thetas are clipped to [theta_lower, 1].
        Returns (times, own), ``own`` marking the thetas equal to 1.
        """
        lo = self.store.theta_lower
        if thetas.size and thetas.min() < lo - THETA_TOL:
            raise OutOfDomain("theta must lie in [%g, 1], got range [%g, %g]"
                              % (lo, thetas.min(), thetas.max()))
        thetas = np.clip(thetas, lo, 1.0)
        own = thetas == 1.0
        tq = thetas[~own, None] * t
        start = self.store._history[0]
        if tq.size and tq.min() < start - paths_mod._atol(
                self.store.times[-1]):
            raise OutOfDomain("lookup at t=%g before the paths start at %g"
                              % (tq.min(), start))
        return np.maximum(tq, start), own

    def _grid_tables(self, thetas):
        """A theta set's grid lookups, compiled once for all rows.

        Returns (own, J, 1 - w, w, fix): grid node k of every row reads
        x(theta_i t_k) from history rows J[i, k] and J[i, k] + 1, except
        the pairs in ``fix`` = (position in rows, i, k, value), sorted
        by position, whose piece holds switch nodes of the row.
        """
        key = thetas.tobytes()
        if key in self._tables:
            return self._tables[key]
        store, rows = self.store, self.rows
        tq, own = self._delayed(thetas, store.times[None, :self.n_g])
        n0 = len(store.init_times)
        J, w = paths_mod._piece(store._history, tq)
        # the (row, step) pairs with switch nodes; J is ascending in k,
        # so the nodes of a row whose piece is step j form one range
        keys = store._steps[0]
        g_row, g_step = np.divmod(keys, len(store.times))
        mine = self.kept[g_row] & (g_step < self.n_g)
        g_pos = np.searchsorted(rows, g_row[mine])
        g_col = n0 + g_step[mine]
        pos, th, k = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
        for i, Ji in enumerate(J):
            lo = np.searchsorted(Ji, g_col, side="left")
            n = np.searchsorted(Ji, g_col, side="right") - lo
            at = np.repeat(np.arange(len(lo)), n)
            pos.append(g_pos[at])
            th.append(np.full(len(at), i))
            k.append(lo[at] + np.arange(len(at)) - (np.cumsum(n) - n)[at])
        pos, th, k = (np.concatenate(v) for v in (pos, th, k))
        order = np.argsort(pos, kind="stable")
        pos, th, k = pos[order], th[order], k[order]
        fix = (pos, np.flatnonzero(~own)[th], k,
               store._eval(rows[pos], tq[th, k]))
        tables = self._tables[key] = (own, J, (1.0 - w)[..., None],
                                      w[..., None], fix)
        return tables

    def block(self, lo: int, hi: int):
        """LV along rows[lo:hi].

        Returns (integrals, part_sums, times, values, offsets): each
        row's integral, ``part_sums[i - 1]`` the drift, diffusion and
        coupling parts integrated over the intervals whose left node is
        in regime i, summed over the rows; and LV at every node in the
        node's regime, row r's nodes at ``offsets[r]:offsets[r + 1]``.
        """
        store, m, n_g = self.store, self.m, self.n_g
        rows = self.rows[lo:hi]
        b = len(rows)
        n0 = len(store.init_times)
        # the history, one row per time and one column per path
        H = np.empty((n0 + n_g, b))
        H[:n0] = store.init_values[:, None]
        H[n0:] = store.values[rows, :n_g].T
        X = H[n0:]

        def grid(thetas):
            own, J, w_l, w_r, (pos, th, k, val) = self._grid_tables(thetas)
            out = np.empty((len(thetas), n_g, b))
            out[own] = X
            out[~own] = H[J] * w_l + H[J + 1] * w_r
            a, z = np.searchsorted(pos, (lo, hi))
            out[th[a:z], k[a:z], pos[a:z] - lo] = val[a:z]
            return out

        t_grid = np.broadcast_to(store.times[:n_g, None], X.shape)
        ev = _Pass(m, X, grid, t_grid,
                   [w[..., None] for w in self.w_grid])
        s_lo, s_hi = np.searchsorted(self.sw_pos, (lo, hi))
        e_lo, e_hi = np.searchsorted(self.end_pos, (lo, hi))
        sparse = np.concatenate((np.arange(s_lo, s_hi),
                                 len(self.sw_pos) + np.arange(e_lo, e_hi)))
        # the block's nodes: the grid nodes (node k of row r at k * b + r),
        # then its switch nodes, then its closing nodes
        n_grid = n_g * b
        grid_parts = [[part.ravel() for part in parts]
                      for parts in _lv_table(self.V, m, ev, X)]
        sparse_parts = self.sp_parts[..., sparse]
        # LV in regime 1 at every node, then in regime 2, ...
        lv = np.concatenate([p[0] + p[1] + p[2] for parts in zip(
            grid_parts, sparse_parts) for p in parts])
        size = n_grid + len(sparse)
        t_all = np.concatenate((np.repeat(store.times[:n_g], b),
                                self.sp_t[sparse]))
        r_all = np.concatenate((store.regimes[rows, :n_g].T.ravel(),
                                self.sp_r[sparse]), dtype=np.int64) - 1

        # src[j]: the node at position j of the rows' nodes in time order;
        # a row's grid nodes fill the places its other nodes leave
        counts = self.counts[lo:hi]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        src = np.empty(offsets[-1], dtype=np.int64)
        sw_row = self.sw_pos[s_lo:s_hi] - lo
        sw_at = (offsets[sw_row] + self.sw_step[s_lo:s_hi] + 1
                 + self.sw_rank[s_lo:s_hi])
        end_at = offsets[self.end_pos[e_lo:e_hi] - lo + 1] - 1
        on_grid = np.ones(len(src), dtype=bool)
        on_grid[sw_at] = False
        on_grid[end_at] = False
        node = np.arange(n_grid).reshape(n_g, b).T
        grid_n = self.grid_n[lo:hi]
        src[on_grid] = (node[np.arange(n_g) < grid_n[:, None]]
                        if (grid_n < n_g).any() else node.ravel())
        src[sw_at] = n_grid + np.arange(len(sw_at))
        src[end_at] = n_grid + len(sw_at) + np.arange(len(end_at))

        # trapezoids in the regime of each interval's left node; no
        # interval joins one row's last node to the next row's first
        t = t_all[src]
        r = r_all[src]
        h = np.diff(t)
        h[offsets[1:-1] - 1] = 0.0
        half = 0.5 * h
        left = r[:-1] * size + src[:-1]
        right = r[:-1] * size + src[1:]
        lv_left = lv[left]
        trapezoids = half * (lv_left + lv[right])
        # the parts' integrals: weight[i, k] is the sum of the half
        # lengths of the intervals in regime i that end at node k
        weight = np.zeros(lv.size)
        weight[left] = half
        weight[right] += half
        weight = weight.reshape(-1, size)
        part_sums = np.array([[g @ w[:n_grid] + s @ w[n_grid:]
                               for g, s in zip(g_parts, s_parts)]
                              for g_parts, s_parts, w in zip(
                                  grid_parts, sparse_parts, weight)])
        # each row's integral sums its trapezoids in time order; rows of
        # one node count share one C-contiguous table
        integrals = np.empty(b)
        for c in np.unique(counts).tolist():
            same = np.flatnonzero(counts == c)
            integrals[same] = trapezoids[offsets[same, None]
                                         + np.arange(c - 1)].sum(axis=1)
        values = np.append(lv_left, lv[r[-1] * size + src[-1]])
        return integrals, part_sums, t, values, offsets


def lv_profile(V: LyapunovFamily, m: ModelSpec, path,
               t_end: Optional[float] = None):
    """LV along one path, its per-point values, and the time integral.

    Evaluates LV(x_s, s, r(s)) at every grid point of ``path`` in
    [t0, t_end] and integrates by trapezoid over each grid interval with
    that interval's regime (switch times are grid points, so the
    integrand is continuous inside every interval).  A t_end between
    grid points adds the interpolated endpoint (t_end, x(t_end)).  This
    is the residual's pass on a store of one row, whose grid is the
    path's nodes from t0 on.

    Returns (times, values, integral).

    Raises:
      ValueError: t_end outside (t0, last node of the path].
    """
    if t_end is None:
        t_end = path.t_end
    require_t_end(t_end, path.t0, path.t_end)
    a = int(np.searchsorted(path.times, path.t0 - paths_mod._atol(
        path.t_end), side="left"))
    none = np.zeros(0, dtype=np.int64)
    store = paths_mod.PathStore(
        theta_lower=path.theta_lower, t0=path.t0,
        init_times=path.times[:a], init_values=path.values[:a],
        times=path.times[a:], values=path.values[None, a:],
        regimes=path.regimes[None, a:], exploded_at=np.full(1, np.nan),
        node_row=none, node_time=none * 1.0, node_value=none * 1.0,
        node_regime=none)
    integrals, _, times, values, _ = _LVAlong(
        V, m, store, np.zeros(1, dtype=np.int64), t_end).block(0, 1)
    return times, values, float(integrals[0])


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
    ``regime_parts[i - 1]`` holds the parts integrated over the intervals
    whose left node is in regime i, as the integral takes them; they sum
    to ``parts`` up to rounding.  Like ``parts``, they are diagnostics,
    and they are left out of comparisons.
    """

    residual: float
    stderr: float
    z: float
    mean_integral: float
    t_end: float
    n_paths_used: int
    n_excluded: int
    parts: Optional[LVBreakdown] = None
    regime_parts: Tuple[LVBreakdown, ...] = field(default=(), compare=False)

    def z_with_allowance(self, allowance: float) -> float:
        if self.stderr == 0.0:
            return 0.0 if abs(self.residual) <= allowance else np.inf
        return max(0.0, abs(self.residual) - abs(allowance)) / self.stderr


def _v_at(V: LyapunovFamily, x, r):
    """V(x[k], r[k]) for every k, in one call per regime."""
    out = np.empty(len(x))
    for i in range(1, V.n_regimes + 1):
        here = r == i
        out[here] = V.value(x[here], i)
    return out


def martingale_residual(V: LyapunovFamily, batch, t_end: float
                        ) -> ResidualStatistic:
    """Run the hybrid Ito residual test on a simulated batch.

    Paths that exploded at or before t_end are excluded and counted.
    Requires the batch to retain its paths (keep_paths=True).  LV is
    evaluated in passes over blocks of rows of the batch's path store;
    a t_end between grid points closes each path's integral at the
    interpolated state x(t_end).

    Raises:
      ValueError: t_end outside (t0, T].
      InsufficientPaths: fewer than 100 usable paths.
    """
    store = batch.paths
    if store is None:
        raise ValueError("batch was run without keep_paths=True")
    require_t_end(t_end, store.t0, store.times[-1])
    kept = np.flatnonzero(~(store.exploded_at <= t_end))
    if len(kept) < 100:
        raise InsufficientPaths(
            "residual test needs >= 100 paths, have %d" % len(kept))
    along = _LVAlong(V, batch.model, store, kept, t_end)
    integrals = np.empty(len(kept))
    part_sums = 0.0
    for lo, hi in along.blocks:
        integrals[lo:hi], block_sums, _, _, _ = along.block(lo, hi)
        part_sums = part_sums + block_sums
    v = _v_at(V, np.concatenate((store.values[kept, 0], along.x_end)),
              np.concatenate((store.regimes[kept, 0], along.r_end)))
    d = (v[len(kept):] - v[:len(kept)]) - integrals
    residual = float(d.mean())
    stderr = standard_error(d)
    if stderr == 0.0:
        z = 0.0 if residual == 0.0 else float(np.inf)
    else:
        z = residual / stderr

    def breakdown(drift, diffusion, coupling):
        return LVBreakdown(value=drift + diffusion + coupling,
                           drift_part=drift, diffusion_part=diffusion,
                           coupling_part=coupling)

    # the parts are the sums of the regimes' parts, in regime order
    by_regime = [[float(s) / len(d) for s in sums] for sums in part_sums]
    return ResidualStatistic(
        residual=residual, stderr=stderr, z=z,
        mean_integral=float(np.mean(integrals)), t_end=float(t_end),
        n_paths_used=len(d), n_excluded=len(store) - len(kept),
        parts=breakdown(*(sum(column) for column in zip(*by_regime))),
        regime_parts=tuple(breakdown(*sums) for sums in by_regime))
