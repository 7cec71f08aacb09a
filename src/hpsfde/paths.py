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

    def __getitem__(self, p) -> DensePath:
        p = self.row(p)
        lo, hi = np.searchsorted(self.node_row, (p, p + 1))
        row = self.values[p]
        keep = ~np.isnan(row)
        times = np.concatenate((self.init_times, self.times[keep],
                                self.node_time[lo:hi]))
        order = np.argsort(times, kind="stable")
        vals = np.concatenate((self.init_values, row[keep],
                               self.node_value[lo:hi]))
        regs = np.concatenate((np.full(len(self.init_times),
                                       self.regimes[p, 0]),
                               self.regimes[p, keep],
                               self.node_regime[lo:hi])).astype(np.int64)
        e = float(self.exploded_at[p])
        return DensePath(times=times[order], values=vals[order],
                         regimes=regs[order], theta_lower=self.theta_lower,
                         t0=self.t0,
                         exploded_at=None if math.isnan(e) else e)


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

def write_table(dest, header, columns, footer=()) -> None:
    """Write equal-length numeric columns as CSV.

    One line of comma-joined ``header`` names, one row per entry with
    every value written by ``%.17g`` (17 significant digits, so floats
    round-trip exactly and integers print as integers), then the
    ``footer`` lines as given.  Every line ends in a bare newline.
    ``dest`` is a text file object, or a file path written as UTF-8.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    lines = [",".join(header) + "\n"]
    lines += [row % values
              for values in zip(*(np.asarray(c).tolist() for c in columns))]
    lines += [line + "\n" for line in footer]
    text = "".join(lines)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_csv(path: DensePath, dest) -> None:
    """Write a path as CSV with columns time, regime, x_1.

    ``dest`` is as for :func:`write_table`; a rewrite of the same path
    is byte-identical.
    """
    write_table(dest, ("time", "regime", "x_1"),
                (path.times, path.regimes, path.values))
