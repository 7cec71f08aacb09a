"""Coefficient models for regime-switching pantograph SDEs.

A model describes
    dx(t) = f(x_t, t, r(t)) dt + g(x_t, t, r(t)) dB(t),  t >= t0 > 0,
where x_t is the proportional-delay segment x_t(theta) = x(theta*t) on
[theta_lower, 1] and r(t) is a Markov regime.  Drift and diffusion are
sums of two structured term kinds:

  * point polynomials in phi(1), e.g. -5(phi + phi^3 + phi^5);
  * pantograph integrals
        c * |phi(1)|^m1 * integral K(theta, t) D(phi(theta)) d nu(theta)
    with D either |phi(theta)|^m2 or signed phi(theta), nu a probability
    measure on [theta_lower, 1], and K an optional exponential decay
    kernel (absent kernel means K == 1).

These two kinds are the whole language.  Each model input checks
itself when it is built: a Measure is its quadrature (thetas and
weights, read-only), the generator its rate matrix
(``markov.GeneratorMatrix``) and ModelSpec checks theta_lower, a finite
positive t0, the per-regime term lists and the initial data (a finite
constant or a (times, values) table).

The state is scalar.  Terms are evaluated on batches of it: phi(1) may
be one state, an array with one state per Monte Carlo path, or one per
time point, and the delayed values are supplied by a callback, so the
same code serves LV at one segment (``lyapunov.eval_LV``), the
path-parallel integrator and LV along the nodes of kept paths.

Each ModelSpec compiles its terms once into a plan: per regime, the
coefficients times shared bases, a basis being a power of phi(1) or a
pantograph integral (times a power of |phi(1)|).  One coefficient pass
computes each basis at most once for all terms and regimes that read it,
sums each regime present in term order on all rows and merges the
regimes row by row, so every value has the bits of summing the terms'
``value`` in term order; ``Term.value`` is the per-term reference the
tests compare the plan against.  A pass looks up the delayed states of
each theta set once and keeps them next to the bases computed from them.
Each integral's weighted quadrature w_j K(theta_j, t) is computed once
per pass; the integrator and LV along paths compute it once for all
their times and hand each pass its columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (NonFiniteState, UnsupportedMeasure, require_finite,
                     require_index)
from .markov import GeneratorMatrix
from .paths import _atol

MASS_TOL = 1e-12
# how far outside [theta_lower, 1] a theta may lie and still be read at
# the nearest end
THETA_TOL = 1e-12
DEFAULT_DENSITY_NODES = 64


# ---------------------------------------------------------------------------
# Measures on [theta_lower, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Measure:
    """Probability measure used by pantograph integral terms, held as its
    quadrature: integral h dnu ~= sum_j weights[j] * h(thetas[j]).

    ``thetas`` and ``weights`` become read-only float64 arrays, checked
    once here: at least one node, one weight per node, all finite,
    weights >= 0 and summing to 1 within ``MASS_TOL``.  Atom measures
    (:meth:`from_atoms`, :meth:`point_mass`) are their own quadrature;
    densities (:meth:`piecewise_density`, :meth:`uniform`) are
    integrated by composite trapezoid.
    """

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        thetas, weights = (np.array(a, dtype=np.float64)
                           for a in (self.thetas, self.weights))
        if not (thetas.ndim == 1 and thetas.shape == weights.shape
                and thetas.size):
            raise UnsupportedMeasure(
                "measure needs at least one theta and one weight per theta")
        if not (np.isfinite(thetas).all() and np.isfinite(weights).all()):
            raise UnsupportedMeasure("thetas and weights must be finite")
        if (weights < 0).any():
            raise UnsupportedMeasure("weights must be nonnegative")
        mass = sum(weights.tolist())
        if abs(mass - 1.0) > MASS_TOL:
            raise UnsupportedMeasure("weights must sum to 1 within %g, got "
                                     "%.17g" % (MASS_TOL, mass))
        for name, a in (("thetas", thetas), ("weights", weights)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_atoms(cls, atoms: Sequence[Tuple[float, float]]) -> "Measure":
        """Atoms (theta, weight), each theta carrying its weight."""
        atoms = [(float(t), float(w)) for t, w in atoms]
        return cls([t for t, _ in atoms], [w for _, w in atoms])

    @classmethod
    def point_mass(cls, theta: float = 1.0) -> "Measure":
        return cls.from_atoms([(theta, 1.0)])

    @classmethod
    def piecewise_density(cls, edges: Sequence[float], values: Sequence[float],
                          nodes: int = DEFAULT_DENSITY_NODES) -> "Measure":
        """Density values[k] on [edges[k], edges[k + 1]], by composite
        trapezoid with at least 2 nodes per piece; ``nodes`` is the
        target total."""
        edges = tuple(float(e) for e in edges)
        values = tuple(float(v) for v in values)
        if len(edges) != len(values) + 1 or len(values) < 1:
            raise UnsupportedMeasure(
                "need len(edges) == len(values) + 1 >= 2")
        if not all(map(math.isfinite, edges + values)):
            raise UnsupportedMeasure("edges and density values must be finite")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise UnsupportedMeasure("edges must be strictly increasing")
        if nodes < 2:
            raise UnsupportedMeasure("nodes must be >= 2")
        total_width = edges[-1] - edges[0]
        thetas, weights = [], []
        for a, b, v in zip(edges, edges[1:], values):
            n = max(2, int(math.ceil(int(nodes) * (b - a) / total_width)))
            w = np.full(n, (b - a) / (n - 1) * v)
            w[0] *= 0.5
            w[-1] *= 0.5
            thetas.append(np.linspace(a, b, n))
            weights.append(w)
        return cls(np.concatenate(thetas), np.concatenate(weights))

    @classmethod
    def uniform(cls, lo: float, hi: float,
                nodes: int = DEFAULT_DENSITY_NODES) -> "Measure":
        return cls.piecewise_density([lo, hi], [1.0 / (hi - lo)], nodes=nodes)

    def support_range(self) -> Tuple[float, float]:
        return float(self.thetas.min()), float(self.thetas.max())


# ---------------------------------------------------------------------------
# Decay kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Exponential decay factor exp(-beta (1 - theta) t), beta >= 0."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and nonnegative, got %r"
                             % (self.beta,))

    def decay(self, theta, t):
        """The kernel value at delay fraction theta and time t."""
        return np.exp(-self.beta * (1.0 - np.asarray(theta)) * np.asarray(t))


# ---------------------------------------------------------------------------
# Coefficient terms
# ---------------------------------------------------------------------------

def _polynomial(coeffs, x, shift: int = 0):
    """The shift-th x-derivative of sum c * x**p over (p, c) in coeffs.

    That is sum c * perm(p, shift) * x**(p - shift) over p >= shift,
    summed in coefficient order from zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for p, c in coeffs:
        if p >= shift:
            out = out + c * math.perm(p, shift) * x ** (p - shift)
    return out


def _power(p, even: bool = False) -> int:
    """``p`` as an int: a real, non-bool number equal to a nonnegative
    integer, and an even one when ``even`` is set.

    Any other ``p`` is a ValueError that names it.  The powers of
    :class:`PolynomialTerm` and of ``lyapunov.PolynomialV`` pass here.
    """
    if (isinstance(p, numbers.Real) and not isinstance(p, bool)
            and 0 <= p < math.inf and p == int(p)
            and not (even and int(p) % 2)):
        return int(p)
    raise ValueError("powers must be %snonnegative integers, got %r"
                     % ("even " if even else "", p))


@dataclass(frozen=True)
class PolynomialTerm:
    """Sum of signed integer powers of the current state phi(1).

    ``coeffs`` is a sequence of (power, coefficient) pairs; the term
    value is sum c * phi(1)**p with p a nonnegative integer, so odd
    powers keep their sign.
    """

    coeffs: Tuple[Tuple[int, float], ...]

    def __init__(self, coeffs: Sequence[Tuple[float, float]]):
        norm = []
        for p, c in coeffs:
            p = _power(p)
            require_finite(coeff=c)
            norm.append((p, float(c)))
        object.__setattr__(self, "coeffs", tuple(norm))

    def value(self, phi1, phi_at, t):
        return _polynomial(self.coeffs, phi1)


@dataclass(frozen=True)
class PantographTerm:
    """Pantograph integral term against a probability measure.

    Value:
        coeff * |phi(1)|^point_exponent
              * integral K(theta, t) * D(phi(theta)) dnu(theta)
    with D(y) = y when ``signed`` (requires delay_exponent == 1), else
    |y|^delay_exponent.  ``kernel`` may be None, meaning K == 1.  The
    integral is the sum over ``measure.thetas`` and ``measure.weights``;
    a ``measure`` that is not a :class:`Measure` is a TypeError.
    """

    coeff: float
    measure: Measure
    kernel: Optional[Kernel] = None
    point_exponent: float = 0.0
    delay_exponent: float = 1.0
    signed: bool = False

    def __post_init__(self):
        require_finite(coeff=self.coeff, point_exponent=self.point_exponent,
                       delay_exponent=self.delay_exponent)
        if self.point_exponent < 0 or self.delay_exponent < 0:
            raise ValueError("exponents must be nonnegative")
        if self.signed and self.delay_exponent != 1.0:
            raise ValueError("signed terms require delay_exponent == 1")
        if not isinstance(self.measure, Measure):
            raise TypeError("measure must be a Measure, got a %s"
                            % type(self.measure).__name__)

    def value(self, phi1, phi_at, t):
        phi1 = np.asarray(phi1, dtype=np.float64)
        out = self._integral(phi_at, self._weighted(t, phi1.ndim))
        if self.point_exponent != 0.0:
            out = out * np.abs(phi1) ** self.point_exponent
        return self.coeff * out

    def _integral_key(self):
        """What the integral depends on besides the state and the time."""
        return (self.measure.thetas.tobytes(), self.measure.weights.tobytes(),
                self.kernel, float(self.delay_exponent), self.signed)

    def _weighted(self, t, ndim: int):
        """The quadrature weights times K(theta, t), one row per theta.

        ``ndim`` is the number of axes the weights broadcast over after
        the theta axis: the state's, or the time's for a table of times.
        """
        thetas = self.measure.thetas
        w = self.measure.weights.reshape((len(thetas),) + (1,) * ndim)
        if self.kernel is not None:
            w = w * self.kernel.decay(thetas.reshape(w.shape), t)
        return w

    def _integral(self, phi_at, w):
        """integral K(theta, t) D(phi(theta)) dnu(theta) by quadrature.

        ``w`` is :meth:`_weighted` at the anchor time.  Terms with equal
        :meth:`_integral_key` share this value, so a coefficient pass
        computes it once for all of them.
        """
        delayed = np.asarray(phi_at(self.measure.thetas), dtype=np.float64)
        if self.signed:
            d = delayed
        elif self.delay_exponent == 1.0:
            d = np.abs(delayed)
        else:
            d = np.abs(delayed) ** self.delay_exponent
        wd = w * d
        # one theta at a time, in quadrature order: numpy would sum
        # pairwise along a contiguous theta axis (a single state), which
        # rounds differently from the row-by-row sum of a batch
        out = wd[0]
        for row in wd[1:]:
            out = out + row
        return out


Term = Union[PolynomialTerm, PantographTerm]


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete coefficient specification of one scalar hybrid system.

    Fields:
      theta_lower: proportional-delay bound in (0, 1).
      t0: start time, finite and > 0 (the earliest delayed lookup is
        theta_lower*t0).
      generator: regime generator matrix.
      drift, diffusion: per-regime term tuples, index regime-1.
      initial_segment: a finite real constant, or a (times, values)
        table on [theta_lower*t0, t0].
    """

    theta_lower: float
    t0: float
    generator: GeneratorMatrix
    drift: Tuple[Tuple[Term, ...], ...]
    diffusion: Tuple[Tuple[Term, ...], ...]
    initial_segment: Union[float, Tuple]
    _plan: "_Plan" = field(init=False, default=None, repr=False,
                           compare=False)

    def __post_init__(self):
        if not 0.0 < self.theta_lower < 1.0:
            raise ValueError("theta_lower must lie in (0, 1)")
        require_finite(t0=self.t0)
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        n = self.generator.n_states
        if len(self.drift) != n or len(self.diffusion) != n:
            raise ValueError(
                "drift/diffusion need one term list per regime (%d)" % n)
        xi = self.initial_segment
        if isinstance(xi, tuple):
            self._check_initial_table()
        elif not isinstance(xi, numbers.Real) or isinstance(xi, bool):
            raise TypeError("initial_segment must be a real constant or a "
                            "(times, values) table, got a %s"
                            % type(xi).__name__)
        elif not math.isfinite(xi):
            raise NonFiniteState("initial value must be finite, got %r"
                                 % (xi,))
        object.__setattr__(self, "_plan", _Plan(self))

    def _check_initial_table(self) -> None:
        """ValueError unless the initial (times, values) table is usable.

        Its times and values are finite and of equal length, the times
        strictly increasing, and they cover [theta_lower*t0, t0] within
        the grid tolerance.  A value that is not finite raises
        NonFiniteState, as a constant does.
        """
        times, values = (np.asarray(a, dtype=np.float64)
                         for a in self.initial_segment)
        lo, tol = self.theta_lower * self.t0, _atol(self.t0)
        if times.ndim != 1 or times.shape != values.shape:
            why = "times and values must be flat and of equal length"
        elif not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            why = "times must be finite and strictly increasing"
        elif not np.isfinite(values).all():
            raise NonFiniteState("initial table: values must be finite")
        elif not (len(times) and times[0] <= lo + tol
                  and times[-1] >= self.t0 - tol):
            why = "times must cover [theta_lower*t0, t0] = [%g, %g]" % (
                lo, self.t0)
        else:
            return
        raise ValueError("initial table: " + why)

    def _check_pantograph(self, term: PantographTerm) -> None:
        lo, hi = term.measure.support_range()
        if lo < self.theta_lower - THETA_TOL or hi > 1.0 + THETA_TOL:
            raise UnsupportedMeasure(
                "measure support [%g, %g] outside [%g, 1]"
                % (lo, hi, self.theta_lower))

    @property
    def n_regimes(self) -> int:
        return self.generator.n_states

    def initial_value(self, t):
        """Initial data xi at time(s) t in [theta_lower*t0, t0].

        The result has the shape of t.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        xi = self.initial_segment
        if isinstance(xi, tuple):
            knots, kvals = xi
            return np.interp(t_arr, np.asarray(knots, float),
                             np.asarray(kvals, float))
        return np.full(t_arr.shape, float(xi))


class _Plan:
    """A model's drift and diffusion as coefficients times shared bases.

    ``drift[i - 1]`` holds regime i's drift terms in term order, each
    as the term's (coeff, basis key) products.  A basis key is ("x", p)
    for x**p, ("I", g) for the integral of group g, or ("P", g, pe) for
    that integral times |x|**pe.  A group is the pantograph terms with
    one integral (quadrature, kernel, delay exponent, signedness);
    ``integrals[g]`` is its first term.  Every term compiles: a model
    holds no other kind.
    """

    def __init__(self, m: ModelSpec):
        self.integrals = []
        groups = {}

        def compile_terms(terms, regime, part):
            out = []
            for pos, term in enumerate(terms, 1):
                if isinstance(term, PolynomialTerm):
                    out.append(tuple((c, ("x", p)) for p, c in term.coeffs))
                elif isinstance(term, PantographTerm):
                    m._check_pantograph(term)
                    shape = term._integral_key()
                    if shape not in groups:
                        groups[shape] = len(self.integrals)
                        self.integrals.append(term)
                    g = groups[shape]
                    key = (("I", g) if term.point_exponent == 0.0
                           else ("P", g, term.point_exponent))
                    out.append(((term.coeff, key),))
                else:
                    raise TypeError(
                        "regime %d %s term %d is a %s, not a PolynomialTerm "
                        "or PantographTerm"
                        % (regime, part, pos, type(term).__name__))
            return tuple(out)

        self.drift = tuple(compile_terms(terms, i, "drift")
                           for i, terms in enumerate(m.drift, 1))
        self.diffusion = tuple(compile_terms(terms, i, "diffusion")
                               for i, terms in enumerate(m.diffusion, 1))

    def weights(self, t):
        """Each integral group's weighted quadrature at the times ``t``.

        One array of shape (quadrature nodes, len(t)) per group, in the
        order of ``integrals``; a kernel-free group's is a broadcast view.
        """
        return [np.broadcast_to(term._weighted(t, 1),
                                (len(term.measure.thetas), len(t)))
                for term in self.integrals]


class _Pass:
    """A model's coefficients at states X and time t, regime by regime.

    ``lookup`` maps a theta vector to the delayed states, one row per
    theta, as a float64 array.  The pass looks up each theta set once
    and keeps its rows in its memo next to the bases computed from
    them; each basis of the model's plan is computed at most once and
    shared by every term and regime that reads it.  A regime's sum has
    the bits of summing its terms' ``value`` in term order from zeros.
    ``weights`` holds each integral group's weighted quadrature at t,
    shaped to broadcast against the delayed states; when it is not
    given, the pass computes it from t.
    """

    def __init__(self, m: ModelSpec, X, lookup, t, weights=None):
        self._plan = m._plan
        self._X = np.asarray(X, dtype=np.float64)
        self._lookup = lookup
        self._weights = weights if weights is not None else [
            term._weighted(t, self._X.ndim) for term in self._plan.integrals]
        # x**1 has the bits of x
        self._memo = {("x", 1): self._X}

    def _delayed(self, thetas):
        """The delayed rows at ``thetas``, looked up once per pass."""
        key = thetas.tobytes()
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = self._lookup(thetas)
        return rows

    def _basis(self, key):
        v = self._memo.get(key)
        if v is None:
            if key[0] == "x":
                v = self._X ** key[1]
            elif key[0] == "I":
                v = self._plan.integrals[key[1]]._integral(
                    self._delayed, self._weights[key[1]])
            else:
                v = self._basis(("I", key[1])) * np.abs(self._X) ** key[2]
            self._memo[key] = v
        return v

    def sum(self, terms):
        """The sum of compiled terms, such as ``plan.drift[i - 1]``."""
        # A term's products are summed without the zero start of
        # Term.value, which can turn its +0.0 into -0.0 and nothing else.
        # The running sum starts at 0.0 + v, so it is never -0.0, and
        # adding +0.0 or -0.0 to it gives the same bits.
        memo = self._memo
        out = None
        for term in terms:
            v = None
            for c, key in term:
                # reading the memo inline saves a call per product
                cb = c * (memo[key] if key in memo else self._basis(key))
                v = cb if v is None else v + cb
            if v is None:
                continue
            out = 0.0 + v if out is None else out + v
        return np.zeros_like(self._X) if out is None else out

    def regime(self, i: int):
        """Regime i's drift and diffusion."""
        return (self.sum(self._plan.drift[i - 1]),
                self.sum(self._plan.diffusion[i - 1]))

    def merged(self, reg):
        """Drift and diffusion with row i in regime reg[i].

        Only the regimes present in ``reg`` are summed, each on all rows,
        and merged by ``np.where``.
        """
        F = G = None
        for i in np.flatnonzero(np.bincount(reg)):
            f, g = self.regime(i)
            if F is None:
                F, G = f, g
            else:
                here = reg == i
                F = np.where(here, f, F)
                G = np.where(here, g, G)
        return F, G


def single_regime(m: ModelSpec, regime: int) -> ModelSpec:
    """Freeze one regime's coefficients as a switching-free model.

    The result has a one-state generator and regime 1 carrying the
    selected coefficient lists; useful for studying a subsystem on its
    own (e.g. an unstable regime that the full chain stabilizes).
    """
    from .markov import make_generator
    require_index("regime", regime, m.n_regimes)
    return ModelSpec(theta_lower=m.theta_lower, t0=m.t0,
                     generator=make_generator([[0.0]]),
                     drift=(m.drift[regime - 1],),
                     diffusion=(m.diffusion[regime - 1],),
                     initial_segment=m.initial_segment)
