"""Path-parallel Euler integration of regime-switching pantograph SDEs.

Scheme: per step [s, s+h] the coefficients are evaluated at the left
endpoint with the segment frozen there,

    x(s+h) = x(s) + f(x_s, s, r(s)) h + g(x_s, s, r(s)) dB,

with dB ~ Normal(0, h).  The regime path is sampled exactly first and
its switch times are inserted into the grid, so no step straddles a
switch and the regime used on a step is always r(left endpoint).

Step kernel: a block of paths advances one uniform step [t, t+h] at a
time in array passes.  The first pass takes the whole step for every
row.  Each row with switches s_1 < ... < s_q inside the step then
replaces it by substeps, one pass per substep index over the alive rows
that have one: [t, s_1] with the f and g already computed (same left
endpoint), then for j >= 1 the substep starting at s_j, evaluating only
the regimes present.  The switches come from a per-block table ordered
by (step, row, time).  A whole step adds f h + g (sqrt(h) z), a substep
f h_s + (g sqrt(h_s)) z.

Delayed lookups x(theta * a) interpolate piecewise linearly, by the
rule of ``paths._interp``, and run once per theta set per pass.  Times
at or before the step's left end t (within 1e-15) read the uniform grid
plus the initial-segment nodes; later times, which a substep starting
at a > t meets for theta > t/a, read the row's own nodes in the step:
t and its switches up to a.  The finished DensePath carries the states
at switch times as nodes too.

Determinism contract: path p draws all its randomness from
SeedSequence(root_seed, spawn_key=(p,)), split once into a regime-chain
stream and a noise stream.  Paths are processed in fixed-size blocks
whose composition depends only on the path index; workers own whole
blocks and write into disjoint preallocated slices.  Each row's result
depends only on its own streams, so rerunning with the same root seed
reproduces every output bit at any block size or worker count.

Noise stream order: each path pre-draws one standard normal per uniform
step plus one per regime switch, consumed in time order (a step
containing q switches consumes q+1).

Blow-up is data, not failure: a path whose state exceeds the threshold
(or turns non-finite) is marked exploded and frozen; the batch always
completes and reports explosion times.  A non-finite state is dated at
the start of its (sub)step, a threshold crossing at its end.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import NonFiniteState, require_finite, require_index
from .markov import sample_regime_path
from .models import ModelSpec, _cached, coefficients
from .paths import DensePath, _interp, _lerp

# Measured: 3000 paths ran 25% faster as one block than as three of 1024.
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, and guards for one batch.

    ``dt`` is snapped so that (T - t0) is a whole number of steps; the
    snapped value never differs by more than one part in 1e9 unless dt
    does not divide the horizon, in which case the step count rounds up.
    """

    dt: float
    T: float
    blowup_threshold: float = 1e8

    def __post_init__(self):
        require_finite(dt=self.dt, T=self.T,
                       blowup_threshold=self.blowup_threshold)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be positive")


def uniform_grid(t0: float, T: float, dt: float) -> np.ndarray:
    """The uniform step grid on [t0, T] with dt snapped to divide evenly."""
    if not T > t0:
        raise ValueError("need T > t0, got t0=%r T=%r" % (t0, T))
    span = T - t0
    k_exact = span / dt
    k = int(round(k_exact))
    if k < 1 or abs(k_exact - k) > 1e-9 * max(1.0, k_exact):
        k = max(1, int(math.ceil(k_exact - 1e-12)))
    times = t0 + (span / k) * np.arange(k + 1)
    times[-1] = T
    return times


def initial_grid(m: ModelSpec, h: float) -> np.ndarray:
    """Sampling nodes for the initial segment on [theta_lower*t0, t0]."""
    lo = m.theta_lower * m.t0
    n = max(2, int(math.ceil((m.t0 - lo) / h)) + 1)
    times = np.linspace(lo, m.t0, n)
    if isinstance(m.initial_segment, tuple):
        knots = np.asarray(m.initial_segment[0], dtype=np.float64)
        inside = knots[(knots >= lo) & (knots <= m.t0)]
        times = np.unique(np.concatenate((times, inside)))
    return times


def path_streams(root_seed: int, p: int):
    """(chain, noise) seed sequences for path index p under a root seed."""
    base = np.random.SeedSequence(entropy=root_seed, spawn_key=(p,))
    return tuple(base.spawn(2))


class TabulatedWiener:
    """Brownian values on a fine grid, shared across refinement levels.

    ``values`` has shape (n_paths, len(times)).  ``increment(a, b)``
    returns W(b) - W(a) per path by linear interpolation, which is exact
    whenever a and b lie on the table's grid.  Outside the grid it
    extrapolates, so run_batch requires the table to cover [t0, T] and
    to hold a row for every path.  Intended for strong convergence
    studies where several step sizes must be driven by the same noise.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.times):
            raise ValueError("values must have shape (n_paths, len(times))")

    @classmethod
    def sample(cls, t0: float, T: float, dt: float, n_paths: int,
               root_seed: int) -> "TabulatedWiener":
        """Draw a table on the uniform grid, one noise stream per path."""
        times = uniform_grid(t0, T, dt)
        k = len(times) - 1
        values = np.empty((n_paths, k + 1))
        values[:, 0] = 0.0
        h = times[1] - times[0]
        for p in range(n_paths):
            _, noise_ss = path_streams(root_seed, p)
            rng = np.random.Generator(np.random.PCG64(noise_ss))
            values[p, 1:] = np.cumsum(
                math.sqrt(h) * rng.standard_normal(k))
        return cls(times, values)

    def increment(self, a: float, b: float) -> np.ndarray:
        return (_interp(self.times, self.values.T, b)
                - _interp(self.times, self.values.T, a))


@dataclass(eq=False)
class SimulationBatch:
    """Results of integrating many independent paths of one model.

    ``uniform_values`` holds every path's state on the shared uniform
    grid (NaN after a path explodes); ``regimes_uniform`` the regime at
    each grid time; ``exploded_at`` the blow-up time per path (NaN when
    none).  ``paths`` carries full DensePath objects including switch
    times when the batch was run with keep_paths=True, else None.
    """

    model: Optional[ModelSpec]
    config: Optional[IntegratorConfig]
    n_paths: int
    i0: int
    root_seed: Optional[int]
    t0: float
    T: float
    uniform_times: np.ndarray = field(repr=False)
    uniform_values: np.ndarray = field(repr=False)
    regimes_uniform: np.ndarray = field(repr=False)
    exploded_at: np.ndarray = field(repr=False)
    n_switches: np.ndarray = field(repr=False)
    paths: Optional[List[DensePath]] = field(default=None, repr=False)

    @property
    def exploded_mask(self) -> np.ndarray:
        return ~np.isnan(self.exploded_at)

    @property
    def n_exploded(self) -> int:
        return int(self.exploded_mask.sum())

    @classmethod
    def synthetic(cls, times, values, t0: Optional[float] = None,
                  exploded_at: Optional[np.ndarray] = None
                  ) -> "SimulationBatch":
        """Wrap externally produced trajectories for the estimators.

        ``times`` is the shared grid, ``values`` an (n_paths, len(times))
        array.  Useful for analyzing data from other integrators or
        closed-form paths.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(times):
            raise ValueError("values must have shape (n_paths, len(times))")
        n_paths = values.shape[0]
        if exploded_at is None:
            exploded_at = np.full(n_paths, np.nan)
        return cls(model=None, config=None, n_paths=n_paths, i0=1,
                   root_seed=None,
                   t0=float(times[0] if t0 is None else t0), T=float(times[-1]),
                   uniform_times=times, uniform_values=values,
                   regimes_uniform=np.ones((n_paths, len(times)),
                                           dtype=np.int16),
                   exploded_at=np.asarray(exploded_at, dtype=np.float64),
                   n_switches=np.zeros(n_paths, dtype=np.int64),
                   paths=None)


class _Switches(NamedTuple):
    """Regime switches strictly inside a uniform step, for one block.

    Entries are ordered by (step, row, time), so one row's switches in
    one step are consecutive, from ``first`` to ``last``.  ``regime``
    is the regime a switch enters and ``end`` the end of the substep it
    starts: the row's next switch in the step, or the step's right end
    when ``last``.  Step k owns entries ``bounds[k]:bounds[k + 1]``.
    """

    row: np.ndarray
    time: np.ndarray
    regime: np.ndarray
    first: np.ndarray
    last: np.ndarray
    end: np.ndarray
    bounds: list


def _sample_block_chains(m, u_times, chain_seeds, i0):
    """Regime paths, regime grid and switch table for one block."""
    b = len(chain_seeds)
    k = len(u_times) - 1
    t0, T = float(u_times[0]), float(u_times[-1])
    chains = [sample_regime_path(m.generator, i0, t0, T,
                                 np.random.default_rng(ss))
              for ss in chain_seeds]
    r_grid = np.empty((b, k + 1), dtype=np.int16)
    for row, rp in enumerate(chains):
        r_grid[row] = rp.state_at(u_times)

    # jump times lie in (t0, T), so every step index is in [0, k)
    time = np.concatenate([rp.jump_times for rp in chains])
    row = np.repeat(np.arange(b), [rp.n_jumps for rp in chains])
    regime = np.concatenate([rp.states[1:] for rp in chains])
    step = np.searchsorted(u_times, time, side="right") - 1
    inside = np.flatnonzero(u_times[step] < time)
    order = inside[np.argsort(step[inside], kind="stable")]
    step, row, time, regime = (v[order] for v in (step, row, time, regime))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (row[1:] != row[:-1])
    last = np.append(first[1:], True)
    end = np.where(last, u_times[step + 1], np.append(time[1:], T))
    bounds = np.searchsorted(step, np.arange(k + 1)).tolist()
    return chains, r_grid, _Switches(row, time, regime, first, last, end,
                                     bounds)


def _draw_block_normals(noise_seeds, n_steps, jump_counts):
    """Flat normal pool with per-path offsets, in canonical stream order."""
    chunks = []
    offsets = np.zeros(len(noise_seeds) + 1, dtype=np.int64)
    for row, noise_ss in enumerate(noise_seeds):
        rng = np.random.Generator(np.random.PCG64(noise_ss))
        need = n_steps + int(jump_counts[row])
        chunks.append(rng.standard_normal(need))
        offsets[row + 1] = offsets[row] + need
    return np.concatenate(chunks) if chunks else np.zeros(0), offsets


def _substep_lookup(hist_t, H, rows, t, a, node_t, node_x):
    """Delayed states x(theta * a) for substeps starting inside a step.

    Row i's substep starts at a[i] in the step [t, t + h].  Lookups at
    or before t (within 1e-15) interpolate the history H on hist_t;
    later ones interpolate the row's nodes in the step, node_t[:, i]
    (t, then its switches up to a[i]) with states node_x[:, i].  Both
    follow ``paths._interp``.  The result has shape (len(thetas), R).
    """
    col = np.arange(len(rows))

    def lookup(thetas):
        lt = thetas[:, None] * a
        j = np.searchsorted(hist_t[1:-1], lt, side="right")
        t_l, t_r = hist_t[j], hist_t[j + 1]
        x_l, x_r = H[j, rows], H[j + 1, rows]
        late = lt > t + 1e-15
        if late.any():
            i = (node_t[1:-1, None] <= lt).sum(axis=0)
            t_l = np.where(late, node_t[i, col], t_l)
            t_r = np.where(late, node_t[i + 1, col], t_r)
            x_l = np.where(late, node_x[i, col], x_l)
            x_r = np.where(late, node_x[i + 1, col], x_r)
        return _lerp(lt, t_l, t_r, x_l, x_r)

    return lookup


def _integrate_block(m, cfg, u_times, init_times, init_vals, rows, i0,
                     root_seed, wiener, keep_paths, out):
    """Integrate one block of paths and write results into ``out``.

    ``out`` is a dict of preallocated batch arrays; this function only
    touches the slices belonging to ``rows``, so concurrent blocks never
    overlap.
    """
    b = len(rows)
    rows_arr = np.asarray(rows, dtype=np.int64)
    k_steps = len(u_times) - 1
    n_init = len(init_times)
    threshold = cfg.blowup_threshold

    chain_seeds, noise_seeds = zip(*[path_streams(root_seed, p)
                                     for p in rows])
    chains, r_grid, sw = _sample_block_chains(m, u_times, chain_seeds, i0)
    jump_counts = np.array([rp.n_jumps for rp in chains], dtype=np.int64)
    if wiener is None:
        normals, offsets = _draw_block_normals(noise_seeds, k_steps,
                                               jump_counts)
    else:
        if jump_counts.any():
            raise ValueError(
                "a Wiener table requires a switching-free model")
        normals, offsets = None, None

    # history, one row per time: initial nodes, then the uniform grid
    ht = np.concatenate((init_times[:-1], u_times))
    H = np.empty((len(ht), b))
    H[:n_init] = init_vals[:, None]
    base_col = n_init - 1
    X = H[base_col].copy()
    alive = np.ones(b, dtype=bool)
    exploded_at = np.full(b, np.nan)
    cursors = np.zeros(b, dtype=np.int64)
    node_x = np.full(len(sw.time), np.nan)

    u_vals = out["uniform_values"]
    u_vals[rows_arr, 0] = X

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(k_steps):
            t = float(u_times[k])
            t_next = float(u_times[k + 1])
            h = t_next - t
            hist_t = ht[:base_col + k + 1]

            phi_at = _cached(lambda thetas: _interp(hist_t, H, thetas * t))
            F, G = coefficients(m, X, r_grid[:, k], phi_at, t)
            if wiener is None:
                z = normals[offsets[:-1] + cursors]
                cursors += 1
                dW = math.sqrt(h) * z
            else:
                dW = wiener.increment(t, t_next)[rows_arr]
            Xn = X + F * h + G * dW

            # Switch substeps, one masked pass per substep index over the
            # alive rows with that many switches in the step: j == 0 ends
            # at the row's first switch and reuses F and G, j >= 1 starts
            # at its j-th switch.
            lo, hi = sw.bounds[k], sw.bounds[k + 1]
            E = lo + np.flatnonzero(sw.first[lo:hi])
            E = E[alive[sw.row[E]]]
            j = 0
            while len(E):
                R = sw.row[E]
                if j == 0:
                    a = np.full(len(E), t)
                    c = sw.time[E]
                    node = E
                    x = X[R]
                    Fs, Gs, zs = F[R], G[R], z[R]
                else:
                    a = sw.time[E]
                    c = sw.end[E]
                    node = np.where(sw.last[E], -1, E + 1)
                    x = Xn[R]
                    ent = E + np.arange(1 - j, 1)[:, None]
                    look = _substep_lookup(
                        hist_t, H, R, t, a,
                        np.vstack((np.full(len(E), t), sw.time[ent])),
                        np.vstack((X[R], node_x[ent])))
                    Fs, Gs = coefficients(m, x, sw.regime[E], _cached(look),
                                          a)
                    zs = normals[offsets[R] + cursors[R]]
                    cursors[R] += 1
                hs = c - a
                xn = x + Fs * hs + Gs * np.sqrt(hs) * zs
                Xn[R] = xn
                ok = np.isfinite(xn)
                has_node = node >= 0
                node_x[node[ok & has_node]] = xn[ok & has_node]
                over = ok & (np.abs(xn) > threshold)
                if over.any() or not ok.all():
                    exploded_at[R[~ok]] = a[~ok]
                    exploded_at[R[over]] = c[over]
                    at_end = over & ~has_node
                    u_vals[rows_arr[R[at_end]], k + 1] = xn[at_end]
                    alive[R[over | ~ok]] = False
                if j:
                    E = E[~sw.last[E]] + 1
                E = E[alive[sw.row[E]]]
                j += 1

            finite = np.isfinite(Xn)
            over = finite & (np.abs(Xn) > threshold)
            newly_bad = alive & ~finite
            newly_over = alive & over
            if newly_bad.any():
                exploded_at[newly_bad] = t
                alive[newly_bad] = False
            if newly_over.any():
                sel = rows_arr[newly_over]
                u_vals[sel, k + 1] = Xn[newly_over]
                exploded_at[newly_over] = t_next
                alive[newly_over] = False
            X = np.where(alive, Xn, 0.0)
            H[base_col + k + 1] = X
            u_vals[rows_arr[alive], k + 1] = X[alive]

    out["regimes_uniform"][rows_arr] = r_grid
    out["exploded_at"][rows_arr] = exploded_at
    out["n_switches"][rows_arr] = jump_counts
    if keep_paths:
        by_row = np.argsort(sw.row, kind="stable")
        starts = np.searchsorted(sw.row[by_row], np.arange(b + 1))
        for row, p in enumerate(rows):
            mine = by_row[starts[row]:starts[row + 1]]
            reached = mine[~np.isnan(node_x[mine])]
            out["paths"][p] = _assemble_path(
                m, u_times, init_times, init_vals, out["uniform_values"][p],
                sw.time[reached], node_x[reached], chains[row],
                exploded_at[row])


def _assemble_path(m, u_times, init_times, init_vals, u_row, sw_t, sw_x,
                   chain, exploded_at):
    """Merge uniform, initial and reached switch nodes into one DensePath.

    The uniform nodes are those the batch recorded in ``u_row``, which
    is NaN after an explosion.  Each node's regime is ``chain.state_at``
    its time, so nodes before t0 carry the initial regime and a switch
    node the regime it enters.
    """
    exploded = not math.isnan(exploded_at)
    u_keep = ~np.isnan(u_row)
    times = np.concatenate((init_times[:-1], u_times[u_keep], sw_t))
    vals = np.concatenate((init_vals[:-1], u_row[u_keep], sw_x))
    order = np.argsort(times, kind="stable")
    times = times[order]
    vals = vals[order]
    return DensePath(times=times, values=vals,
                     regimes=chain.state_at(times).astype(np.int64),
                     theta_lower=m.theta_lower, t0=m.t0,
                     exploded_at=float(exploded_at) if exploded else None)


def run_batch(m: ModelSpec, cfg: IntegratorConfig, n_paths: int, i0: int,
              root_seed: int, workers: int = 1,
              block_size: int = DEFAULT_BLOCK_SIZE, keep_paths: bool = True,
              wiener: Optional[TabulatedWiener] = None) -> SimulationBatch:
    """Integrate ``n_paths`` independent paths of one model.

    Results are bit-identical for a fixed (model, config, n_paths, i0,
    root_seed) at any ``workers``/``block_size`` partitioning, and no
    single path's blow-up aborts the batch.

    Args:
      workers: thread count; blocks are distributed round-robin.
        GIL-bound, slower than one thread; kept while bench/ times it.
      block_size: paths per vectorized block (tuning only, not results).
      keep_paths: retain full DensePath objects (required by the
        martingale residual test); switch off for large batches where
        only the uniform-grid values are needed.
      wiener: optional Brownian table replacing the per-path noise
        streams; switching-free models only.  It must cover [t0, T] and
        hold at least ``n_paths`` rows.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    require_index("i0", i0, m.n_regimes)
    if block_size < 1:
        raise ValueError("block_size must be >= 1, got %r" % (block_size,))

    u_times = uniform_grid(m.t0, cfg.T, cfg.dt)
    if wiener is not None:
        if wiener.times[0] > u_times[0] or wiener.times[-1] < u_times[-1]:
            raise ValueError(
                "the Wiener table covers [%g, %g], not [t0, T] = [%g, %g]"
                % (wiener.times[0], wiener.times[-1], u_times[0],
                   u_times[-1]))
        if len(wiener.values) < n_paths:
            raise ValueError("the Wiener table has %d rows for %d paths"
                             % (len(wiener.values), n_paths))
    h = float(u_times[1] - u_times[0])
    init_times = initial_grid(m, h)
    init_vals = m.initial_value(init_times)
    if not np.all(np.isfinite(init_vals)):
        raise NonFiniteState("initial data contains non-finite values")

    k1 = len(u_times)
    out = {
        "uniform_values": np.full((n_paths, k1), np.nan),
        "regimes_uniform": np.empty((n_paths, k1), dtype=np.int16),
        "exploded_at": np.full(n_paths, np.nan),
        "n_switches": np.zeros(n_paths, dtype=np.int64),
        "paths": [None] * n_paths if keep_paths else None,
    }
    blocks = [list(range(s, min(s + block_size, n_paths)))
              for s in range(0, n_paths, block_size)]

    def work(rows):
        _integrate_block(m, cfg, u_times, init_times, init_vals, rows, i0,
                         root_seed, wiener, keep_paths, out)

    if workers <= 1 or len(blocks) == 1:
        for rows in blocks:
            work(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, blocks))

    return SimulationBatch(
        model=m, config=cfg, n_paths=n_paths, i0=i0, root_seed=root_seed,
        t0=m.t0, T=float(cfg.T), uniform_times=u_times,
        uniform_values=out["uniform_values"],
        regimes_uniform=out["regimes_uniform"],
        exploded_at=out["exploded_at"], n_switches=out["n_switches"],
        paths=out["paths"])


def integrate_path(m: ModelSpec, cfg: IntegratorConfig, i0: int,
                   seed: int) -> DensePath:
    """Integrate a single path.

    Defined as path 0 of a one-path batch with root seed ``seed``, so
    run_batch(..., n_paths=1, root_seed=s).paths[0] and
    integrate_path(..., seed=s) are the same path bit for bit.
    """
    batch = run_batch(m, cfg, n_paths=1, i0=i0, root_seed=seed,
                      keep_paths=True)
    return batch.paths[0]
