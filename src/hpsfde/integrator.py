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
that have one: [t, s_1] with the step's f, g and normal (same left
endpoint), then for j >= 1 the substep starting at s_j, evaluating
only the regimes present.  A whole step adds f h + g (sqrt(h) z), a
substep f h_s + (g sqrt(h_s)) z.

Delayed-lookup rule.  This is the package's one rule for reading
x(theta a) at a node a of a row, by the Euler step and by LV along kept
paths alike.  The node lies in the uniform step that starts at t; a
grid node starts its own step, so a = t there.  Thetas are clipped to
[theta_lower, 1] first.  A time theta a at or before t (within 1e-15)
reads the initial-segment and uniform-grid nodes alone, the piece
capped at the step that ends at t, so theta == 1 at a grid time reads
that node.  A later time, which a node a > t meets for theta > t/a,
reads the row's own nodes in the step: t and its switches up to a.
Either way the value is the piece's x_l (1 - w) + x_r w, with the
weight w of ``paths._piece``.  ``_Grid`` compiles the grid half of the
rule once per batch and theta set, and each integral's weighted kernel
at every grid time once per batch; ``_Lookups`` compiles the rest once
per block, with the kernels at the block's switch times.
``lyapunov._LVAlong`` lays out each block of kept rows as a block of
the step loop, its switch and closing nodes as the entries of a switch
table, and runs the loop's two kinds of pass over it, one over the grid
rows and one over the switch entries, through these same lookups and
kernels.

A batch that keeps its paths keeps the states at switch times as nodes
too, in one store with the grid values (``paths.PathStore``).  The
store builds each path's DensePath on demand, and the LV residual
reads it block by block of rows.

Before its step loop, a block compiles what its sampled switch table
fixes: each switch's two lookup sources in one buffer that holds the
history followed by the switch-node states; per switch, its substep
lengths, their square roots, its normal and the slot its end state goes
to; per integral of the model's plan, the weighted kernel at every
switch time.  The grid's lookups and kernels are shared by every block.
Until step k writes its end state into its history row, that row holds
the step's Brownian increment: sqrt(h) times the step's normal, or the
difference of a ``TabulatedWiener`` table across the step.  A pass only
gathers, multiplies, adds and writes.  Each state is written once, into
the history, and the block's grid values are filled from it once at
the end.

Determinism contract: path p draws all its randomness from the two
children of SeedSequence(root_seed, spawn_key=(p,)), a regime-chain
stream and a noise stream.  They are built directly from their spawn
keys (p, 0) and (p, 1); the chain stream only when the start regime is
not absorbing, since an absorbing chain draws nothing.  Paths are
processed in fixed-size blocks whose composition depends only on the
path index; ``run_batch``'s workers own whole blocks and write into
disjoint preallocated slices, and a block's draw threads own whole
chunks of its rows.  Each row's result depends only on its own
streams, so rerunning with the same root seed reproduces every output
bit at any block size, worker count or number of usable cores.

Noise stream order: each path draws one standard normal per uniform
step plus one per regime switch inside a step, in time order: a step
containing q switches consumes its step normal, used by the whole step
or by its first substep, then one normal per substep that starts at a
switch.  A jump exactly at a grid time starts no substep and reads no
normal.  A block draws its paths' normals in that order, a chunk of a
few dozen rows at a time, and splits each chunk: the normal of step k,
scaled by sqrt(h), waits in the history row that step k's end state
overwrites, which the step loop reads as one contiguous row before
writing it, and the switch normals go to the switch table's order.  A
block of at least ``_THREADED_STEPS`` steps, with several chunks and
several usable cores (``os.sched_getaffinity``), draws on min(cores,
chunks) threads: the calling thread draws every threads-th chunk and a
pool made for the block draws the others, whole chunks, into slot
buffers that the calling thread allocates.  The calling thread splits
every chunk, in chunk order, and the pool is shut down before the
block's step loop.  Otherwise the calling thread draws alone.  A thread
that draws a row reads only that row's stream, so which thread draws
which chunk changes no bit.

Blow-up is data, not failure: a path whose state exceeds the threshold
(or turns non-finite) is marked exploded and frozen; the batch always
completes and reports explosion times.  A non-finite state is dated at
the start of its (sub)step, a threshold crossing at its end.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import require_finite, require_index
from .markov import sample_regime_path
from .models import ModelSpec, _Pass
from .paths import DensePath, PathStore, _interp, _piece

# Measured on 2 cores: 3000 switch-free paths to T = 15 took 126 ms as
# one block and 196-204 ms as three of 1024.
DEFAULT_BLOCK_SIZE = 4096
# rows per chunk of the buffer that a block draws its normals into
_NORMAL_ROWS = 32
# A row's draw releases the GIL only while it fills the row's normals,
# so several threads pay only on long rows.  Measured on 2 cores, 3000
# switch-free rows took 15% less time on two threads than on one at 1000
# steps and 39% less at 1400, but 5% more at 700 and 27% more at 500.
_THREADED_STEPS = 1000


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


# the two streams of a path, by their index among the spawned children
_CHAIN, _NOISE = 0, 1


def _stream(root_seed: int, p: int, c: int) -> np.random.SeedSequence:
    """Stream c of path p: child c of SeedSequence(root_seed, (p,))."""
    return np.random.SeedSequence(root_seed, spawn_key=(p, c))


def path_streams(root_seed: int, p: int):
    """(chain, noise) seed sequences for path index p under a root seed.

    They are the two children that ``SeedSequence(root_seed,
    spawn_key=(p,)).spawn(2)`` returns, built directly from their spawn
    keys (p, 0) and (p, 1) without the parent.
    """
    return _stream(root_seed, p, _CHAIN), _stream(root_seed, p, _NOISE)


def _table(times, values):
    """``times`` and ``values`` as float arrays, checked: ``times`` a
    finite, strictly increasing grid and ``values`` one row per path
    with one entry per time."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or not (np.isfinite(times).all()
                               and (np.diff(times) > 0).all()):
        raise ValueError("times must be a finite, strictly increasing "
                         "grid, got %s" % np.array2string(times))
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(times):
        raise ValueError("values must have shape (n_paths, len(times))")
    return times, values


class TabulatedWiener:
    """Brownian values on a fine grid, shared across refinement levels.

    ``values`` has shape (n_paths, len(times)).  ``increment(a, b)``
    returns W(b) - W(a) per path by linear interpolation, which is exact
    whenever a and b lie on the table's grid.  Outside the grid it
    extrapolates, so run_batch requires the table to cover [t0, T] and
    to hold a row for every path.  Intended for strong convergence
    studies where several step sizes must be driven by the same noise.
    ``times`` must hold at least two times, finite and strictly
    increasing, and ``values`` must be finite.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.times, self.values = _table(times, values)
        if len(self.times) < 2:
            raise ValueError("times must hold at least 2 times")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

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
            rng = np.random.Generator(np.random.PCG64(
                _stream(root_seed, p, _NOISE)))
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
    none).  When the batch was run with keep_paths=True, ``paths`` is a
    read-only :class:`~hpsfde.paths.PathStore` over these arrays plus
    the switch nodes: ``paths[p]`` builds path p's DensePath, switch
    times included, on demand.  Otherwise it is None.
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
    paths: Optional[PathStore] = field(default=None, repr=False)

    @property
    def exploded_mask(self) -> np.ndarray:
        return ~np.isnan(self.exploded_at)

    @property
    def n_exploded(self) -> int:
        return int(self.exploded_mask.sum())

    @classmethod
    def synthetic(cls, times, values,
                  exploded_at: Optional[np.ndarray] = None
                  ) -> "SimulationBatch":
        """Wrap externally produced trajectories for the estimators.

        ``times`` is the shared grid, finite and strictly increasing,
        which starts at t0, and ``values`` an (n_paths, len(times))
        array.  ``exploded_at``, one blow-up
        time per path (NaN when none), defaults to no explosions.
        Useful for analyzing data from other integrators or closed-form
        paths.
        """
        times, values = _table(times, values)
        n_paths = values.shape[0]
        if exploded_at is None:
            exploded_at = np.full(n_paths, np.nan)
        exploded_at = np.asarray(exploded_at, dtype=np.float64)
        if exploded_at.shape != (n_paths,):
            raise ValueError("exploded_at must have shape (n_paths,) = (%d,),"
                             " got %s" % (n_paths, exploded_at.shape))
        return cls(model=None, config=None, n_paths=n_paths, i0=1,
                   root_seed=None, t0=float(times[0]), T=float(times[-1]),
                   uniform_times=times, uniform_values=values,
                   regimes_uniform=np.ones((n_paths, len(times)),
                                           dtype=np.int16),
                   exploded_at=exploded_at,
                   n_switches=np.zeros(n_paths, dtype=np.int64),
                   paths=None)


class _Switches(NamedTuple):
    """Regime switches strictly inside a uniform step, for one block.

    Entries are in pass order: by step, then by the switch's rank among
    its row's switches in the step, then by row.  ``regime`` is the
    regime a switch enters, ``end`` the end of the substep it starts:
    the row's next switch in the step (entry ``nxt``), or the step's
    right end when ``nxt`` is -1.  ``prv`` is the row's previous switch
    in the step, or -1.  ``rank`` counts the row's earlier switches in
    the block.  ``passes[k]`` lists step k's entries by rank as (lo, hi)
    ranges.
    """

    step: np.ndarray
    row: np.ndarray
    time: np.ndarray
    regime: np.ndarray
    end: np.ndarray
    nxt: np.ndarray
    prv: np.ndarray
    rank: np.ndarray
    passes: dict


def _sample_block_chains(m, u_times, rows, root_seed, i0, r_grid):
    """Fill the block's regime grid r_grid; return jump counts, switches.

    A block whose start regime is absorbing samples no chain: its grid
    is i0 throughout and its switch table is empty.
    """
    b = len(rows)
    r_grid[...] = i0
    jump_counts = np.zeros(b, dtype=np.int64)
    time, regime = np.zeros(0), np.zeros(0, dtype=np.int64)
    if not m.generator.absorbing(i0):
        t0, T = float(u_times[0]), float(u_times[-1])
        chains = [sample_regime_path(m.generator, i0, t0, T,
                                     np.random.default_rng(
                                         _stream(root_seed, p, _CHAIN)))
                  for p in rows]
        jump_counts[:] = [rp.n_jumps for rp in chains]
        for row in np.flatnonzero(jump_counts).tolist():
            r_grid[row] = chains[row].state_at(u_times)
        time = np.concatenate([rp.jump_times for rp in chains])
        regime = np.concatenate([rp.states[1:] for rp in chains])
    row = np.repeat(np.arange(b), jump_counts)
    return jump_counts, _switch_table(u_times, row, time, regime)


def _switch_table(u_times, row, time, regime):
    """The switch table of nodes strictly inside steps of ``u_times``.

    Entry i is on block row ``row[i]`` at ``time[i]`` and enters
    ``regime[i]``; the entries come in (row, time) order, and those at a
    grid time are left out.
    """
    # jump times lie in (t0, T), so every step index is in [0, k)
    step = np.searchsorted(u_times, time, side="right") - 1
    inside = np.flatnonzero(u_times[step] < time)
    # by (step, row, time): one row's switches in a step are consecutive
    order = inside[np.argsort(step[inside], kind="stable")]
    step, row, time, regime = (v[order] for v in (step, row, time, regime))
    n = len(order)
    idx = np.arange(n)
    first = np.ones(n, dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (row[1:] != row[:-1])
    last = np.append(first[1:], True)
    group = np.cumsum(first) - 1
    in_step = idx - np.flatnonzero(first)[group]
    # a row's switches in stream order are its switches in step order
    by_row = np.argsort(row, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_row] = idx - np.searchsorted(row[by_row], row[by_row])
    perm = np.lexsort((row, in_step, step))
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = idx
    fields = (step, row, time, regime,
              np.where(last, u_times[step + 1], np.roll(time, -1)),
              np.where(last, -1, np.roll(pos, -1)),
              np.where(first, -1, np.roll(pos, 1)), rank)
    sw = _Switches(*(v[perm] for v in fields), passes={})
    in_step = in_step[perm]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (np.diff(sw.step) != 0) | (np.diff(in_step) != 0)
    starts = np.flatnonzero(starts).tolist()
    for lo, hi in zip(starts, starts[1:] + [n]):
        sw.passes.setdefault(int(sw.step[lo]), []).append((lo, hi))
    return sw


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_block_normals(rows, root_seed, sw, dW, sqrt_h):
    """Draw the block's step increments into ``dW``, and its switch
    normals in the switch table's order.

    ``dW`` has one row per uniform step and one column per block row: the
    history rows that the steps' end states overwrite.  Row r draws one
    normal per step plus one per switch of its own in the table from its
    noise stream, in stream order, into a slot buffer that holds one
    chunk of ``_NORMAL_ROWS`` rows; a jump at a grid time starts no
    substep and reads no normal.  Each chunk is split: the normal z of
    uniform step k goes to ``dW[k, r]`` as ``sqrt_h[k] * z``, and the
    normal of the substep that starts at switch entry e to ``z_sw[e]``.
    In a row's stream, each step's normal is followed by one per switch
    inside the step, so entry e is at position step + 1 + rank.  A row's
    first switch in a step also gets the step's normal, the one before
    its own, in ``z_to[e]``: its substep to that switch reads it after
    the step has overwritten its increment.

    On several threads (see the module docstring) there are two slots
    per thread, and once a chunk is split its slot passes to the chunk
    that many places on.  Only the calling thread allocates: a buffer
    allocated in a worker would stay in that thread's own malloc arena
    and raise the peak RSS.
    """
    steps, b = dW.shape
    z_sw = np.empty(len(sw.time))
    z_to = np.empty(len(sw.time))
    by_row = np.argsort(sw.row, kind="stable")
    row_sorted = sw.row[by_row]
    # (first row, end row, switch entries, each row's normals in a slot)
    chunks = []
    for c0 in range(0, b, _NORMAL_ROWS):
        c1 = min(c0 + _NORMAL_ROWS, b)
        e = by_row[np.searchsorted(row_sorted, c0):
                   np.searchsorted(row_sorted, c1)]
        offsets = np.zeros(c1 - c0 + 1, dtype=np.int64)
        np.cumsum(steps + np.bincount(sw.row[e] - c0, minlength=c1 - c0),
                  out=offsets[1:])
        chunks.append((c0, c1, e, offsets))

    def draw(chunk, slot):
        c0, c1, _, offsets = chunk
        for p, lo, hi in zip(rows[c0:c1], offsets[:-1].tolist(),
                             offsets[1:].tolist()):
            rng = np.random.Generator(np.random.PCG64(
                _stream(root_seed, p, _NOISE)))
            rng.standard_normal(out=slot[lo:hi])
        return slot

    def split(chunk, slot):
        c0, c1, e, offsets = chunk
        buf = slot[:offsets[-1]]
        if len(e):
            at = offsets[sw.row[e] - c0] + sw.step[e] + 1 + sw.rank[e]
            z_sw[e] = buf[at]
            first = sw.prv[e] < 0
            z_to[e[first]] = buf[at[first] - 1]
            keep = np.ones(len(buf), dtype=bool)
            keep[at] = False
            buf = buf[keep]
        # scaled in place, in row order: a ufunc into the transposed
        # slice would allocate its own buffers for every chunk
        buf = buf.reshape(c1 - c0, steps)
        buf *= sqrt_h
        dW[:, c0:c1] = buf.T

    threads = (min(_usable_cores(), len(chunks))
               if steps >= _THREADED_STEPS else 1)
    size = max(int(offsets[-1]) for *_, offsets in chunks)
    if threads == 1:
        slot = np.empty(size)
        for chunk in chunks:
            split(chunk, draw(chunk, slot))
        return z_sw, z_to
    slots = [np.empty(size) for _ in range(2 * threads)]
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        drawn = {}

        def ahead(c):
            if c < len(chunks) and c % threads:
                drawn[c] = pool.submit(draw, chunks[c], slots[c % len(slots)])

        for c in range(len(slots)):
            ahead(c)
        for c, chunk in enumerate(chunks):
            slot = (drawn.pop(c).result() if c % threads
                    else draw(chunk, slots[c % len(slots)]))
            split(chunk, slot)
            ahead(c + len(slots))
    return z_sw, z_to


class _Grid:
    """A batch's history times, each theta set's grid lookups, and each
    integral's weighted kernel at every grid time.

    ``ht`` holds the initial nodes before t0, then the uniform grid from
    index ``base`` on.  Grid time k reads x(theta t_k) from history rows
    j[k] and j[k] + 1 with weights (1 - w, w), the piece capped at the
    step that ends at t_k, so theta == 1 reads x(t_k) and never a later
    row.  Thetas are clipped to [theta_lower, 1] where the tables
    compile.  A theta set's tables are compiled on first use and shared
    by every block that reads this grid.  ``weights[g][:, k]`` is the
    weighted kernel of the plan's integral group g at grid time k, shaped
    to broadcast against the delayed rows of a block.
    """

    def __init__(self, ht, base, theta_lower, plan):
        self.ht, self.base, self.theta_lower = ht, base, theta_lower
        self.plan = plan
        self.weights = [w[..., None] for w in plan.weights(ht[base:])]
        self._sets = {}

    def clip(self, thetas):
        return np.clip(thetas, self.theta_lower, 1.0)

    def tables(self, thetas):
        """(j, j + 1, 1 - w, w, run), one row per grid time; run[i] is
        j[0, i] when theta i reads consecutive rows, j[k, i] = j[0, i] +
        k, and -1 otherwise."""
        key = thetas.tobytes()
        tables = self._sets.get(key)
        if tables is None:
            t = self.ht[self.base:, None]
            j, w = _piece(self.ht, self.clip(thetas) * t,
                          self.base + np.arange(len(t))[:, None] - 1)
            run = np.where((np.diff(j, axis=0) == 1).all(axis=0), j[0], -1)
            tables = self._sets[key] = (j, j + 1, (1.0 - w)[..., None],
                                        w[..., None], run.tolist())
        return tables


class _Lookups:
    """A block's delayed lookups, by the rule of its ``_Grid``, and each
    integral's weighted kernel at its switch times, ``weights``.

    ``buf`` holds the history H, one row per time of the grid's ``ht``
    (the first ``n`` of them when given) and one column per row of the
    block, followed by the state at each node of the switch table ``sw``
    in the table's order.  Each lookup is a piece of the rule of
    ``paths._interp``: two sources and the weights (1 - w, w).

    - Grid time k reads x(theta t_k) by the grid's tables.
    - The node of switch entry a reads x(theta a) from two flat sources
      in ``buf``.  A time at or before the step's left end t (within
      1e-15) reads H, the piece capped at the step that ends at t; a
      later one reads the row's nodes in the step: t, then its entries
      up to a.  These tables are compiled once per theta set.
    """

    def __init__(self, grid, sw, b, n=None):
        n = len(grid.ht) if n is None else n
        self.buf = np.empty(n * b + len(sw.time))
        self.H = self.buf[:n * b].reshape(n, b)
        self.nodes = self.buf[n * b:]
        self._grid, self._sw, self._b = grid, sw, b
        self.weights = grid.plan.weights(sw.time)
        self._sets = {}

    def _switch_tables(self, thetas):
        key = thetas.tobytes()
        tables = self._sets.get(key)
        if tables is not None:
            return tables
        sw, b, ht = self._sw, self._b, self._grid.ht
        col = self._grid.base + sw.step
        lt = self._grid.clip(thetas)[:, None] * sw.time
        j, w = _piece(ht, lt, col - 1)
        left, right = j * b + sw.row, (j + 1) * b + sw.row
        t = ht[col]
        late = lt > t + 1e-15
        if late.any():
            # walk back from the entry's own node to the piece [s, s']
            # of the row's nodes in the step that holds lt
            node = self.H.size
            s_right = np.broadcast_to(np.arange(len(sw.time)), lt.shape)
            s_left = np.broadcast_to(sw.prv, lt.shape)
            while True:
                back = (s_left >= 0) & (sw.time[s_left] > lt)
                if not back.any():
                    break
                s_right = np.where(back, s_left, s_right)
                s_left = np.where(back, sw.prv[s_left], s_left)
            at_t = s_left < 0
            t_l = np.where(at_t, t, sw.time[s_left])
            t_r = sw.time[s_right]
            w = np.where(late, (lt - t_l) / (t_r - t_l), w)
            left = np.where(late, np.where(at_t, col * b + sw.row,
                                           node + s_left), left)
            right = np.where(late, node + s_right, right)
        tables = self._sets[key] = (left, right, 1.0 - w, w)
        return tables

    def at_step(self, k):
        """The lookup of grid time k."""
        H = self.H

        def lookup(thetas):
            j, j1, w_l, w_r, _ = self._grid.tables(thetas)
            return H[j[k]] * w_l[k] + H[j1[k]] * w_r[k]

        return lookup

    def at_switches(self, sel):
        """The lookups of the nodes of switch entries sel."""
        buf = self.buf

        def lookup(thetas):
            left, right, w_l, w_r = self._switch_tables(thetas)
            return (buf[left[:, sel]] * w_l[:, sel]
                    + buf[right[:, sel]] * w_r[:, sel])

        return lookup

    def at_grid(self, n):
        """The lookups of grid times 0..n-1 of every row, time-major."""
        H = self.H

        def lookup(thetas):
            j, j1, w_l, w_r, run = self._grid.tables(thetas)
            out = np.empty((len(thetas), n, self._b))
            for i, a in enumerate(run):
                # consecutive rows are read as slices, not gathered
                left, right = ((H[a:a + n], H[a + 1:a + 1 + n]) if a >= 0
                               else (H[j[:n, i]], H[j1[:n, i]]))
                np.add(left * w_l[:n, i], right * w_r[:n, i], out=out[i])
            return out

        return lookup


def _integrate_block(m, cfg, u_times, grid, init_vals, rows, i0,
                     root_seed, wiener, keep_paths, out):
    """Integrate one block of paths and write results into ``out``.

    ``rows`` is a range of path indices.  ``out`` is a dict of
    preallocated batch arrays; this function only touches the slices
    belonging to ``rows``, so concurrent blocks never overlap.
    """
    b = len(rows)
    block = slice(rows.start, rows.stop)
    threshold = cfg.blowup_threshold

    r_grid = out["regimes_uniform"][block]
    jump_counts, sw = _sample_block_chains(m, u_times, rows, root_seed, i0,
                                           r_grid)
    if wiener is not None and jump_counts.any():
        raise ValueError("a Wiener table requires a switching-free model")

    # history, one row per time: initial nodes, then the uniform grid;
    # the switch-node states follow it in one buffer.  Until step k
    # writes its end state, that state's row holds the step's increment.
    base_col = grid.base
    look = _Lookups(grid, sw, b)
    H, buf, node_x = look.H, look.buf, look.nodes
    H[:base_col + 1] = init_vals[:, None]
    if wiener is None:
        z_sw, z_to = _draw_block_normals(rows, root_seed, sw,
                                         H[base_col + 1:],
                                         np.sqrt(np.diff(u_times)))
    else:
        H[base_col + 1:] = np.diff(_interp(
            wiener.times, wiener.values[block].T, u_times), axis=0)
    node_x[:] = np.nan

    # substep geometry: [t, s] ending at switch s, and [s, end] from it;
    # a substep's end state goes to the next switch's node, or to H
    h_to = sw.time - u_times[sw.step]
    sq_to = np.sqrt(h_to)
    h_from = sw.end - sw.time
    sq_from = np.sqrt(h_from)
    to_node = H.size + np.arange(len(sw.time))
    from_dst = np.where(sw.nxt < 0, (base_col + sw.step + 1) * b + sw.row,
                        H.size + sw.nxt)
    h_list = np.diff(u_times).tolist()
    t_list = u_times.tolist()

    alive = np.ones(b, dtype=bool)
    dead = np.zeros(0, dtype=np.int64)
    exploded_at = np.full(b, np.nan)
    # the uniform column a row died in, and its state there if it
    # crossed the threshold at that grid time
    death_col = np.zeros(b, dtype=np.int64)
    crossed = np.full(b, np.nan)

    def blow_up(R, xn, start, stop, at_grid, k):
        """Date and freeze the rows R whose states xn fail |x| <= threshold.

        A non-finite state is dated at its (sub)step's start, a crossing
        at its end; ``at_grid`` marks ends at the step's right end.
        Returns the rows dead so far.
        """
        ok = np.isfinite(xn)
        over = ok & ~(np.abs(xn) <= threshold)
        exploded_at[R[~ok]] = start[~ok]
        exploded_at[R[over]] = stop[over]
        at_end = over & at_grid
        crossed[R[at_end]] = xn[at_end]
        bad = R[over | ~ok]
        alive[bad] = False
        death_col[bad] = k + 1
        return np.flatnonzero(~alive)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(len(u_times) - 1):
            t, t_next = t_list[k], t_list[k + 1]
            X, Xn = H[base_col + k], H[base_col + k + 1]
            F, G = _Pass(m, X, look.at_step(k), None,
                         [w[:, k] for w in grid.weights]
                         ).merged(r_grid[:, k])
            # Xn holds the step's increment until the step writes it
            np.add(X + F * h_list[k], G * Xn, out=Xn)

            # Switch substeps, one pass per substep index over the alive
            # rows with that many switches in the step: the first ends
            # at the row's first switch and reuses F, G and the step's
            # normal, kept in z_to; each later one starts at a switch
            # and ends at the next switch or at t_next, where its state
            # goes to H.
            passes = sw.passes.get(k, [])
            for i, (lo, hi) in enumerate(passes[:1] + passes):
                sel = slice(lo, hi)
                if len(dead):
                    sel = lo + np.flatnonzero(alive[sw.row[lo:hi]])
                R = sw.row[sel]
                if i == 0:
                    xn = (X[R] + F[R] * h_to[sel]
                          + G[R] * sq_to[sel] * z_to[sel])
                    dst = to_node[sel]
                else:
                    x = node_x[sel]
                    Fs, Gs = _Pass(m, x, look.at_switches(sel), None,
                                   [w[:, sel] for w in look.weights]
                                   ).merged(sw.regime[sel])
                    xn = (x + Fs * h_from[sel]
                          + Gs * sq_from[sel] * z_sw[sel])
                    dst = from_dst[sel]
                if (np.abs(xn) <= threshold).all():
                    buf[dst] = xn
                    continue
                ok = np.isfinite(xn)
                buf[dst[ok]] = xn[ok]
                if i == 0:
                    dead = blow_up(R, xn, np.full(len(R), t), sw.time[sel],
                                   False, k)
                else:
                    dead = blow_up(R, xn, sw.time[sel], sw.end[sel],
                                   sw.nxt[sel] < 0, k)

            if not (np.abs(Xn) <= threshold).all():
                R = np.flatnonzero(alive)
                dead = blow_up(R, Xn[R], np.full(len(R), t),
                               np.full(len(R), t_next), True, k)
            Xn[dead] = 0.0

    # one pass over the history fills the block's grid values; a dead
    # row keeps NaN from its death on, but its crossing state
    u_block = out["uniform_values"][block]
    u_block[...] = H[base_col:].T
    for row in dead.tolist():
        u_block[row, death_col[row]:] = np.nan
        u_block[row, death_col[row]] = crossed[row]
    out["exploded_at"][block] = exploded_at
    out["n_switches"][block] = jump_counts
    if keep_paths:
        # the reached switch nodes by row and time; a row's entries in
        # pass order are in time order
        by_row = np.argsort(sw.row, kind="stable")
        reached = by_row[~np.isnan(node_x[by_row])]
        out["nodes"][rows.start] = (sw.row[reached] + rows.start,
                                    sw.time[reached], node_x[reached],
                                    sw.regime[reached])


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
        GIL-bound, slower than one thread: on 2 cores, 3000 switch-free
        paths in blocks of 1024 took 230-244 ms on two workers and
        196-204 ms on one, each block drawing its normals on two
        threads of its own.  Kept while bench/ times it.
      block_size: paths per vectorized block (tuning only, not results).
      keep_paths: keep the switch nodes too, so that ``paths`` holds
        every path (the martingale residual test reads them); switch
        off when only the uniform-grid values are needed.
      wiener: optional Brownian table replacing the per-path noise
        streams; switching-free models only.  It must cover [t0, T] and
        hold at least ``n_paths`` rows.
    """
    require_index("n_paths", n_paths)
    require_index("i0", i0, m.n_regimes)
    require_index("block_size", block_size)

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
    # one grid for every block: its lookups compile once per theta set
    grid = _Grid(np.concatenate((init_times[:-1], u_times)),
                 len(init_times) - 1, m.theta_lower, m._plan)

    k1 = len(u_times)
    out = {
        # every block writes its whole slice of both grids
        "uniform_values": np.empty((n_paths, k1)),
        "regimes_uniform": np.empty((n_paths, k1), dtype=np.int16),
        "exploded_at": np.full(n_paths, np.nan),
        "n_switches": np.zeros(n_paths, dtype=np.int64),
        "nodes": {},
    }
    blocks = [range(s, min(s + block_size, n_paths))
              for s in range(0, n_paths, block_size)]

    def work(rows):
        _integrate_block(m, cfg, u_times, grid, init_vals, rows, i0,
                         root_seed, wiener, keep_paths, out)

    if workers <= 1 or len(blocks) == 1:
        for rows in blocks:
            work(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, blocks))

    paths = None
    if keep_paths:
        row, time, value, regime = (
            np.concatenate(column) for column in zip(
                *(out["nodes"][rows.start] for rows in blocks)))
        paths = PathStore(
            theta_lower=m.theta_lower, t0=m.t0, init_times=init_times[:-1],
            init_values=init_vals[:-1], times=u_times,
            values=out["uniform_values"], regimes=out["regimes_uniform"],
            exploded_at=out["exploded_at"], node_row=row, node_time=time,
            node_value=value, node_regime=regime)
    return SimulationBatch(
        model=m, config=cfg, n_paths=n_paths, i0=i0, root_seed=root_seed,
        t0=m.t0, T=float(cfg.T), uniform_times=u_times,
        uniform_values=out["uniform_values"],
        regimes_uniform=out["regimes_uniform"],
        exploded_at=out["exploded_at"], n_switches=out["n_switches"],
        paths=paths)


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
