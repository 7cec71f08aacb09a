"""Continuous-time Markov chains on a finite state space.

The regime process r(t) takes values in {1, ..., N} and is described by a
generator matrix whose off-diagonal entry (i, j) is the jump rate from
state i to state j.  Sampling uses the exact jump-chain construction:
the holding time in state i is Exponential(-rates[i, i]) and the next
state is drawn from the embedded chain.  Switch times are produced
verbatim so that an integrator can insert them into its time grid.

States are 1-based in every public interface.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (NegativeOffDiagonal, ReducibleChain, RowSumNonZero,
                     require_index)

ROW_SUM_TOL = 1e-12
# a state that leaves at a total rate this small never jumps: its mean
# holding time is beyond any horizon
ABSORBING_RATE = 1e-300


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """An N x N transition-rate matrix, checked at construction.

    ``rates`` is a square array-like of shape (N, N), N >= 1, held as a
    read-only float64 copy.  Off-diagonal entries are jump rates and
    must be >= 0; each row must sum to zero within ``ROW_SUM_TOL``
    absolute.  Generators compare and hash by identity.

    Raises:
      ValueError: not a square matrix, or some rate is NaN or infinite.
      NegativeOffDiagonal: some rate (i, j), i != j, is negative.
      RowSumNonZero: some row sum exceeds the tolerance.
    """

    rates: np.ndarray

    def __post_init__(self):
        q = np.array(self.rates, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise ValueError("generator must be a square matrix with N >= 1")
        if not np.isfinite(q).all():
            raise ValueError("generator rates must be finite")
        off = q[~np.eye(len(q), dtype=bool)]
        if off.size and off.min() < 0.0:
            raise NegativeOffDiagonal(
                "off-diagonal rates must be nonnegative, min is %g"
                % off.min())
        worst = np.abs(q.sum(axis=1)).max()
        if worst > ROW_SUM_TOL:
            raise RowSumNonZero("row sums must be 0 within %g, worst is %g"
                                % (ROW_SUM_TOL, worst))
        q.setflags(write=False)
        object.__setattr__(self, "rates", q)

    @property
    def n_states(self) -> int:
        return len(self.rates)

    @cached_property
    def _holding(self) -> list:
        """Total jump rate out of each state, as Python floats."""
        return (-np.diag(self.rates)).tolist()

    @cached_property
    def _jump_rows(self) -> list:
        """Row i-1: cumulative destination probabilities of a jump from i.

        Python lists for the sampler, built on first use, so a chain
        that never jumps never builds them.  Rows of absorbing states
        are never read.
        """
        off = np.where(np.eye(self.n_states, dtype=bool), 0.0, self.rates)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.cumsum(off / -np.diag(self.rates)[:, None],
                             axis=1).tolist()

    def absorbing(self, i: int) -> bool:
        """Whether state i (1-based) never jumps."""
        return self._holding[i - 1] <= ABSORBING_RATE


def make_generator(rates) -> GeneratorMatrix:
    """``GeneratorMatrix(rates)``: the checked, read-only rate matrix."""
    return GeneratorMatrix(rates)


@dataclass(frozen=True, eq=False)
class RegimePath:
    """One sampled trajectory of the regime process on [t0, T].

    The path is piecewise constant and right-continuous: the process sits
    in states[k] on [jump_times[k-1], jump_times[k]) with the convention
    jump_times[-1] = t0.  Consecutive states always differ.  Paths
    compare and hash by identity.
    """

    t0: float
    T: float
    jump_times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)

    def state_at(self, t):
        """Regime at time t (scalar or array), right-continuous.

        Times outside [t0, T] return the boundary regime: the initial
        state before t0 (the initial segment) and the last state after T.
        """
        idx = np.searchsorted(self.jump_times, t, side="right")
        out = self.states[idx]
        if np.ndim(t) == 0:
            return int(out)
        return out

    def occupation_fractions(self, n_states: int) -> np.ndarray:
        """Fraction of [t0, T] spent in each state, as a length-N vector."""
        edges = np.concatenate(([self.t0], self.jump_times, [self.T]))
        lengths = np.diff(edges)
        occ = np.zeros(n_states)
        np.add.at(occ, self.states - 1, lengths)
        return occ / (self.T - self.t0)

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)


def sample_regime_path(g: GeneratorMatrix, i0: int, t0: float, T: float,
                       seed) -> RegimePath:
    """Sample one regime trajectory by the exact jump-chain construction.

    Args:
      g: validated generator.
      i0: initial state in {1, ..., N}.
      t0, T: finite horizon with t0 < T.
      seed: anything np.random.default_rng accepts (int, SeedSequence,
        or Generator).  The draw order is fixed: one exponential per
        sojourn followed by one uniform for the destination, so a given
        seed always reproduces the same path.

    Returns:
      RegimePath with strictly increasing jump times in (t0, T).
    """
    require_index("i0", i0, g.n_states)
    if not -np.inf < t0 < T < np.inf:
        raise ValueError("need t0 < T, both finite, got t0=%r T=%r" % (t0, T))
    rng = np.random.default_rng(seed)
    jumps = []
    states = [i0]
    t = t0
    i = i0
    while not g.absorbing(i):
        t = t + rng.exponential(1.0 / g._holding[i - 1])
        if t >= T:
            break
        # the row is cumulative: bisect_right is searchsorted's side="right"
        u = rng.random()
        j = min(bisect_right(g._jump_rows[i - 1], u) + 1, g.n_states)
        jumps.append(t)
        states.append(j)
        i = j
    return RegimePath(t0=float(t0), T=float(T),
                      jump_times=np.asarray(jumps, dtype=np.float64),
                      states=np.asarray(states, dtype=np.int64))


def stationary_distribution(g: GeneratorMatrix) -> np.ndarray:
    """Stationary distribution pi with pi @ rates = 0 and sum(pi) = 1.

    Computed from the null space of the transposed generator via SVD.

    Raises:
      ReducibleChain: the null space has dimension > 1, so pi is not
        unique.
    """
    q = g.rates
    n = g.n_states
    if n == 1:
        return np.ones(1)
    _, s, vt = np.linalg.svd(q.T)
    scale = max(1.0, float(np.abs(q).max()))
    tol = scale * n * np.finfo(float).eps * 1e3
    null_dim = int(np.sum(s <= tol))
    if null_dim > 1:
        raise ReducibleChain(
            "null space of the transposed generator has dimension %d"
            % null_dim)
    pi = vt[-1]
    pi = pi / pi.sum()
    if pi.min() < -1e-9:
        raise ReducibleChain("stationary vector has negative entries")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
