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
grid values and the switch-node table directly, in blocks of rows with a
fixed bound on the nodes a block holds.  A block takes the step loop's
two coefficient passes: one over its grid rows, one over its switch and
closing nodes.  :func:`lv_profile` is its one-row case.  Each path's
integral sums its own trapezoids in time order, so results do not
depend on the blocks.

Every delayed lookup reads by the rule stated in the ``integrator``
module's docstring, through its compiled lookups, so the f in LV at a
node is the f of the Euler step there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import paths as paths_mod
from .errors import (DimensionMismatch, InsufficientPaths, require_finite,
                     require_index)
from .estimators import standard_error
from .integrator import _Grid, _Lookups, _switch_table
from .models import ModelSpec, _Pass, _polynomial, _power


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

    @classmethod
    def of(cls, drift, diffusion, coupling) -> "LVBreakdown":
        """The breakdown of these parts, whose value is their sum."""
        return cls(value=drift + diffusion + coupling, drift_part=drift,
                   diffusion_part=diffusion, coupling_part=coupling)


def _check_regimes(V: LyapunovFamily, m: ModelSpec) -> None:
    if V.n_regimes != m.n_regimes:
        raise DimensionMismatch(
            "V has %d regimes, model has %d" % (V.n_regimes, m.n_regimes))


def _lv_regime(V: LyapunovFamily, m: ModelSpec, ev: _Pass, x, v, i: int):
    """LV's drift, diffusion and coupling parts at the states x in regime
    i; ``ev`` is a coefficient pass at x and ``v`` V at x in every
    regime, regime 1 first."""
    f, g = ev.regime(i)
    coupling = np.zeros_like(x)
    for rate, v_l in zip(m.generator.rates[i - 1], v):
        coupling = coupling + rate * v_l
    return V.dx(x, i) * f, 0.5 * g * g * V.dxx(x, i), coupling


def _lv_table(V: LyapunovFamily, m: ModelSpec, ev: _Pass, x):
    """LV's parts at the states x in every regime, regime 1 first."""
    v = [V.value(x, l + 1) for l in range(m.n_regimes)]
    return [_lv_regime(V, m, ev, x, v, i) for i in range(1, m.n_regimes + 1)]


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
    # only regime i's coefficients; V in every regime feeds the coupling
    v = [V.value(x, l + 1) for l in range(m.n_regimes)]
    return LVBreakdown.of(*(float(part)
                            for part in _lv_regime(V, m, ev, x, v, i)))


# Upper bound on the nodes that one pass of LV along paths holds.  The
# history lookup builds (quadrature nodes x block nodes) arrays, so one
# pass over a whole batch would multiply the peak memory of the check.
# A block takes as many rows as fit when each has the most nodes of any.
# On 1000 switch_stabilized paths at dt=1e-3 on [1, 2], 1 << 15 ran the
# check about 10% faster than 1 << 14, and its peak stayed below the
# batch's own.
_CHUNK_NODES = 1 << 15


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
    ``x_end`` and ``r_end`` are each row's state at t_end, read by the
    rule of ``paths._interp`` over the row's nodes, and the regime of
    the node it is read from.

    A block of rows (``blocks`` lists them as (lo, hi) ranges of
    ``rows``) is laid out as the integrator lays out its own: the
    time-major history, then the rows' switch and closing nodes as the
    entries of a switch table, in one ``integrator._Lookups`` buffer.
    So every delayed lookup and weighted kernel is the integrator's, and
    LV at the block's nodes takes the step loop's two passes: one over
    the grid rows, one over the table's entries.  The grid lookups and
    kernels compile once for all blocks.
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
        self.grid_n = n_g - np.isnan(store.values[rows, n_g - 1])
        kept = np.zeros(len(store), dtype=bool)
        kept[rows] = True
        node_row, node_time = store.node_row, store.node_time
        sel = np.flatnonzero(kept[node_row] & (node_time <= t_end + tol))

        # x(t_end) by the rule of paths._interp on the piece of each
        # row's nodes that holds t: its grid step, narrowed to the row's
        # switch nodes inside the step
        t = min(t_end, times[-1])
        g = min(int(np.searchsorted(times, t, side="right")) - 1,
                len(times) - 2)
        t_l, t_r = np.full(len(rows), times[g]), np.full(len(rows),
                                                         times[g + 1])
        x_l, x_r = store.values[rows, g], store.values[rows, g + 1]
        r_l = store.regimes[rows, g].astype(np.int64)
        s = np.flatnonzero(kept[node_row] & (node_time > times[g])
                           & (node_time < times[g + 1]))
        at = np.searchsorted(rows, node_row[s])
        before = node_time[s] <= t
        # a row's last node at or before t, and its first one after t
        sl, pl = s[before], at[before]
        last = np.diff(pl, append=-1) != 0
        sl, pl = sl[last], pl[last]
        t_l[pl], x_l[pl] = node_time[sl], store.node_value[sl]
        r_l[pl] = store.node_regime[sl]
        sr, pr = s[~before], at[~before]
        first = np.diff(pr, prepend=-1) != 0
        sr, pr = sr[first], pr[first]
        t_r[pr], x_r[pr] = node_time[sr], store.node_value[sr]
        self.x_end = paths_mod._lerp(t, t_l, t_r, x_l, x_r)
        self.r_end = (store.regimes[rows, -1] if t_end >= times[-1]
                      else r_l)
        # t_end closes a row none of whose nodes lies within tol of it
        close = (t_l < t_end - tol) & (t_r > t_end + tol)

        # the rows' switch nodes and closing nodes by row and time, each
        # a node of its block's switch table: (position in rows, time,
        # regime, state)
        pos = np.concatenate((np.searchsorted(rows, node_row[sel]),
                              np.flatnonzero(close)))
        by_row = np.argsort(pos, kind="stable")
        self.entries = tuple(v[by_row] for v in (
            pos, np.concatenate((node_time[sel],
                                 np.full(close.sum(), t_end))),
            np.concatenate((store.node_regime[sel], r_l[close])),
            np.concatenate((store.node_value[sel], self.x_end[close]))))
        self.counts = self.grid_n + np.bincount(pos, minlength=len(rows))

        size = max(1, _CHUNK_NODES // int(self.counts.max()))
        self.blocks = [(lo, min(lo + size, len(rows)))
                       for lo in range(0, len(rows), size)]
        n0 = len(store.init_times)
        self.grid = _Grid(np.concatenate((store.init_times, times)), n0,
                          store.theta_lower, m._plan)

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
        pos, time, regime, x = self.entries
        a, z = np.searchsorted(pos, (lo, hi))
        row = pos[a:z] - lo
        sw = _switch_table(store.times, row, time[a:z], regime[a:z])
        look = _Lookups(self.grid, sw, b, n0 + n_g)
        look.H[:n0] = store.init_values[:, None]
        look.H[n0:] = store.values[rows, :n_g].T
        # an entry's rank counts its row's entries before it
        look.nodes[:] = x[a + np.searchsorted(row, sw.row) + sw.rank]

        # the step loop's two passes: one over the grid nodes (node k of
        # row r at k * b + r), then one over the table's entries
        X = look.H[n0:]
        n_grid = n_g * b
        size = n_grid + len(sw.time)
        on_grid = _lv_table(self.V, m, _Pass(
            m, X, look.at_grid(n_g), None,
            [w[:, :n_g] for w in self.grid.weights]), X)
        on_switch = _lv_table(self.V, m, _Pass(
            m, look.nodes, look.at_switches(slice(None)), None,
            look.weights), look.nodes)
        t_all = np.concatenate((np.repeat(store.times[:n_g], b), sw.time))
        r_all = np.concatenate((store.regimes[rows, :n_g].T.ravel(),
                                sw.regime), dtype=np.int64) - 1
        # LV in regime 1 at every node, then in regime 2, ...
        lv = np.empty((m.n_regimes, size))
        for i, (d, g, c) in enumerate(on_grid):
            np.add(d + g, c, out=lv[i, :n_grid].reshape(X.shape))
        for i, (d, g, c) in enumerate(on_switch):
            np.add(d + g, c, out=lv[i, n_grid:])
        lv = lv.ravel()

        # src[j]: the node at position j of the rows' nodes in time order;
        # a row's grid nodes fill the places its other nodes leave
        counts = self.counts[lo:hi]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        src = np.empty(offsets[-1], dtype=np.int64)
        sw_at = offsets[sw.row] + sw.step + 1 + sw.rank
        is_grid = np.ones(len(src), dtype=bool)
        is_grid[sw_at] = False
        node = np.arange(n_grid).reshape(n_g, b).T
        grid_n = self.grid_n[lo:hi]
        src[is_grid] = (node[np.arange(n_g) < grid_n[:, None]]
                        if (grid_n < n_g).any() else node.ravel())
        src[sw_at] = n_grid + np.arange(len(sw_at))

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
        # a part's sum is one dot product over all of the block's nodes,
        # which rounds as one pass did, so its two passes are joined
        part_sums = np.array([[np.concatenate((p_g.ravel(), p_s)) @ w
                               for p_g, p_s in zip(grid_parts, sw_parts)]
                              for grid_parts, sw_parts, w in zip(
                                  on_grid, on_switch, weight)])
        # each row's integral sums its trapezoids in time order; rows of
        # one node count share one C-contiguous table
        integrals = np.empty(b)
        for c in np.unique(counts).tolist():
            same = np.flatnonzero(counts == c)
            integrals[same] = trapezoids[offsets[same, None]
                                         + np.arange(c - 1)].sum(axis=1)
        values = np.append(lv_left, lv[r[-1] * size + src[-1]])
        return integrals, part_sums, t, values, offsets


def lv_profile(V: LyapunovFamily, batch, p, t_end: Optional[float] = None):
    """LV along kept row p of a batch, its values at the row's nodes, and
    the time integral on [t0, t_end] (t_end defaults to T).

    The nodes are the row's grid and switch nodes on [t0, t_end], closed
    by (t_end, x(t_end)) when t_end lies between two of them; LV at a
    node is taken in the node's regime.  This is the residual's pass on
    row p alone, so the times, values and integral are bit for bit row
    p's share of :func:`martingale_residual` at the same t_end.  p
    follows the index rules of ``batch.paths[p]``, and t_end must come
    before the row's explosion, if it has one.

    Returns (times, values, integral).

    Raises:
      ValueError: a batch run without keep_paths=True, t_end outside
        (t0, T], or a row that exploded at or before t_end.
      TypeError, IndexError: a p that ``batch.paths[p]`` rejects.
    """
    store = batch.paths
    if store is None:
        raise ValueError("batch was run without keep_paths=True")
    p = store.row(p)
    if t_end is None:
        t_end = store.times[-1]
    require_t_end(t_end, store.t0, store.times[-1])
    if store.exploded_at[p] <= t_end:
        raise ValueError("path %d exploded at t=%r, at or before t_end=%r"
                         % (p, float(store.exploded_at[p]), float(t_end)))
    integrals, _, times, values, _ = _LVAlong(
        V, batch.model, store, np.full(1, p), t_end).block(0, 1)
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

    # the parts are the sums of the regimes' parts, in regime order
    by_regime = [[float(s) / len(d) for s in sums] for sums in part_sums]
    return ResidualStatistic(
        residual=residual, stderr=stderr, z=z,
        mean_integral=float(np.mean(integrals)), t_end=float(t_end),
        n_paths_used=len(d), n_excluded=len(store) - len(kept),
        parts=LVBreakdown.of(*(sum(column) for column in zip(*by_regime))),
        regime_parts=tuple(LVBreakdown.of(*sums) for sums in by_regime))
