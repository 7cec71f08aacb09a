"""Dense solution paths, the batch path store and CSV export.

A solution trajectory is stored as values on a strictly increasing time
grid covering [theta_lower * t0, T], with the initial segment populated
from the initial data before integration starts.  Between grid points a
path is read piecewise linearly (:func:`_interp`), which matches the
strong order of the Euler scheme.

The segment of a path at anchor time t is the function
phi(theta) = x(theta * t) on [theta_lower, 1]; phi(1) is the current
state.  Because theta <= 1, no segment lookup ever needs future data.
A batch keeps its paths in one :class:`PathStore`, which the integrator
fills and the LV residual reads row block by row block.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _atol(scale: float) -> float:
    return 1e-9 * max(1.0, abs(scale))


@dataclass(frozen=True)
class DensePath:
    """Piecewise-linear path with per-point regime labels.

    Fields:
      times: (m,) strictly increasing grid; times[0] = theta_lower * t0.
      values: (m,) scalar state at each grid point.
      regimes: (m,) regime in effect at each grid point, right-continuous;
        points before t0 carry the initial regime.
      theta_lower: proportional-delay bound in (0, 1).
      t0: integration start time (> 0).
      exploded_at: time the blow-up guard tripped, or None.  When set,
        the grid ends at exploded_at.
    """

    times: np.ndarray
    values: np.ndarray
    regimes: np.ndarray
    theta_lower: float
    t0: float
    exploded_at: Optional[float] = None

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def _lerp(t, t_left, t_right, x_left, x_right):
    """The piecewise-linear rule on the piece [t_left, t_right] at t."""
    w = (t - t_left) / (t_right - t_left)
    return x_left * (1.0 - w) + x_right * w


def _piece(times, t, last=None):
    """Index j and weight w of the piece [times[j], times[j + 1]] at t.

    j indexes the last time at or before t, capped at ``last`` (by
    default the second to last time), and w = (t - times[j]) /
    (times[j + 1] - times[j]), so the rule of :func:`_lerp` reads
    x[j] (1 - w) + x[j + 1] w.  ``times`` holds at least two entries and
    ``last`` is at least 0: a batch's history has a node before t0, and
    a ``TabulatedWiener`` table at least two times.
    """
    if last is None:
        last = len(times) - 2
    j = np.minimum(np.searchsorted(times[1:], t, side="right"), last)
    return j, (t - times[j]) / (times[j + 1] - times[j])


def _interp(times, values, t):
    """Piecewise-linear interpolation of ``values`` over ``times`` at t.

    No domain checks: queries outside [times[0], times[-1]] extrapolate
    the end pieces.  ``values`` holds one entry per time along its first
    axis, either a number or a row with one number per path, and may
    have entries past len(times), which are never read.  The result has
    the shape of t, followed by the path axis if there is one.  The
    piece and its weight are :func:`_piece`'s.
    """
    j, w = _piece(times, t)
    if values.ndim == 2:
        w = np.asarray(w)[..., None]
    return values[j] * (1.0 - w) + values[j + 1] * w


@dataclass(frozen=True, eq=False)
class PathStore(Sequence):
    """The paths of one batch in one store; ``store[p]`` builds path p.

    Every path shares the nodes ``init_times`` before t0, with states
    ``init_values``, and the grid ``times``, which starts at t0.  Row p
    holds its states on the grid in ``values[p]``, NaN where the path
    has no node (after it exploded at ``exploded_at[p]``, which is NaN
    when it did not), and its regimes there in ``regimes[p]``.  The
    switch nodes lie strictly inside grid steps; entry i is at
    ``node_time[i]`` on row ``node_row[i]`` with state ``node_value[i]``
    and the regime it enters, ``node_regime[i]``, sorted by row and time.

    ``store[p]`` is a DensePath with the initial, grid and switch nodes
    of row p in time order.  A node's regime is the row's regime there;
    the initial nodes carry the regime at t0.
    """

    theta_lower: float
    t0: float
    init_times: np.ndarray
    init_values: np.ndarray
    times: np.ndarray
    values: np.ndarray
    regimes: np.ndarray
    exploded_at: np.ndarray
    node_row: np.ndarray
    node_time: np.ndarray
    node_value: np.ndarray
    node_regime: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def row(self, p) -> int:
        """Row p of the store, counted from the end when p < 0.

        Raises TypeError for a p that is not an integer and IndexError
        for one outside the store.
        """
        p, n = operator.index(p), len(self)
        if not -n <= p < n:
            raise IndexError("path %d of a store of %d paths" % (p, n))
        return p % n

    def _merge(self, p):
        """Row p's nodes in time order, as a function of their columns.

        ``merge(init, grid, node)`` joins a column's entries at the
        initial nodes (``init`` holds one per node, or one for all),
        at row p's kept grid nodes (``grid`` holds one per grid time)
        and at row p's switch nodes (``node`` holds one per switch node
        of the store), and returns them in the time order of row p's
        nodes, ties kept in that order.  ``store[p]`` and
        :meth:`write_csvs` read every column through this one rule.
        """
        lo, hi = np.searchsorted(self.node_row, (p, p + 1))
        keep = ~np.isnan(self.values[p])
        n_init = len(self.init_times)
        order = np.argsort(np.concatenate((self.init_times, self.times[keep],
                                           self.node_time[lo:hi])),
                           kind="stable")

        def merge(init, grid, node):
            return np.concatenate((np.broadcast_to(init, n_init), grid[keep],
                                   node[lo:hi]))[order]
        return merge

    def __getitem__(self, p) -> DensePath:
        p = self.row(p)
        merge = self._merge(p)
        regimes = merge(self.regimes[p, 0], self.regimes[p], self.node_regime)
        e = float(self.exploded_at[p])
        return DensePath(
            times=merge(self.init_times, self.times, self.node_time),
            values=merge(self.init_values, self.values[p], self.node_value),
            regimes=regimes.astype(np.int64), theta_lower=self.theta_lower,
            t0=self.t0, exploded_at=None if math.isnan(e) else e)

    def write_csvs(self, dests) -> None:
        """Write path p to ``dests[p]`` for each p < len(dests).

        Each file holds the bytes of ``write_csv(store[p], dests[p])``.
        The initial and grid times, the regime labels and the written
        paths' switch-node times are formatted once per call, so a path
        formats only its states.  Raises IndexError, before writing,
        when there are more destinations than paths.
        """
        if len(dests):
            self.row(len(dests) - 1)
        n_nodes = np.searchsorted(self.node_row, len(dests))
        init, grid, node = (_formatted(t) for t in (
            self.init_times, self.times, self.node_time[:n_nodes]))
        top = max(self.regimes.max(initial=0),
                  self.node_regime.max(initial=0))
        labels = _formatted(np.arange(top + 1))
        for p, dest in enumerate(dests):
            merge = self._merge(p)
            regimes = merge(self.regimes[p, 0], self.regimes[p],
                            self.node_regime)
            write_table(dest, _CSV_HEADER,
                        (merge(init, grid, node).tolist(),
                         labels[regimes].tolist(),
                         merge(self.init_values, self.values[p],
                               self.node_value)))


# ---------------------------------------------------------------------------
# Synthetic segments (no underlying path)
# ---------------------------------------------------------------------------

class ConstantSegment:
    """Segment that is identically equal to a fixed state.

    Useful for evaluating coefficients and the LV operator at
    hand-picked arguments, e.g. phi == 1.
    """

    def __init__(self, value: float, theta_lower: float):
        self.value = float(value)
        self.theta_lower = float(theta_lower)

    @property
    def point(self) -> float:
        return self.value

    def __call__(self, theta):
        return np.full(np.shape(theta), self.value)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_HEADER = ("time", "regime", "x_1")


def _formatted(values) -> np.ndarray:
    """``values`` written by ``%.17g``, as an object array of str."""
    return np.array(["%.17g" % v for v in np.asarray(values).tolist()],
                    dtype=object)


def write_table(dest, header, columns, footer=()) -> None:
    """Write equal-length columns as CSV.

    One line of comma-joined ``header`` names, one row per entry, then
    the ``footer`` lines as given.  Every line ends in a bare newline.
    A column of str (a list of str, say) is written as given; every
    other column holds numbers, each written by ``%.17g`` (17
    significant digits, so floats round-trip exactly and integers print
    as integers).  Raises ValueError unless there is one header name
    per column and the columns have one length.  ``dest`` is a text
    file object, or a file path written as UTF-8.
    """
    if len(header) != len(columns):
        raise ValueError("%d header names for %d columns"
                         % (len(header), len(columns)))
    cols = [c if isinstance(c, list) else np.asarray(c).tolist()
            for c in columns]
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError("columns of unequal lengths %s"
                         % [len(c) for c in cols])
    row = ",".join("%s" if c and isinstance(c[0], str) else "%.17g"
                   for c in cols) + "\n"
    flat = [None] * (n * len(cols))
    for k, c in enumerate(cols):
        flat[k::len(cols)] = c
    text = "".join([",".join(header) + "\n", row * n % tuple(flat)]
                   + [line + "\n" for line in footer])
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_csv(path: DensePath, dest) -> None:
    """Write a path as CSV with columns time, regime, x_1.

    ``dest`` is as for :func:`write_table`; a rewrite of the same path
    is byte-identical.  :meth:`PathStore.write_csvs` writes a batch's
    paths with the same bytes.
    """
    write_table(dest, _CSV_HEADER, (path.times, path.regimes, path.values))
