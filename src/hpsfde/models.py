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
pantograph integral (times a power of |phi(1)|).  For each tuple of
regimes that a pass covers, the plan generates one Python function of
straight-line numpy code.  It computes each basis that those regimes
read once, sums each regime in term order on all rows and merges the
regimes row by row, so every value has the bits of summing the terms'
``value`` in term order; ``Term.value`` is the per-term reference the
tests compare the plan against.  The generated source holds only names
and integer indices: the model's coefficients, powers and exponents
are bound by name.  A pass reads the delayed states of each theta set
once, by the set's number, and each integral's weighted quadrature
w_j K(theta_j, t) from its caller: the integrator and LV along paths
compute it once for all their times, ``eval_LV`` at its one time.
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
    """A model's drift and diffusion as coefficients times shared bases,
    and the coefficient passes compiled from them.

    ``drift[i - 1]`` holds regime i's drift terms in term order, each
    as the term's (coeff, basis key) products.  A basis key is ("x", p)
    for x**p, ("I", g) for the integral of group g, or ("P", g, pe) for
    that integral times |x|**pe.  A group is the pantograph terms with
    one integral (quadrature, kernel, delay exponent, signedness);
    ``integrals[g]`` is its first term.  The groups' distinct theta
    vectors are numbered: ``thetas[s]`` is set s, and group g reads set
    ``theta_set[g]``.  Every term compiles: a model holds no other kind.

    :meth:`compiled` turns the plan into one Python function per tuple
    of regimes, from generated straight-line source.
    """

    def __init__(self, m: ModelSpec):
        self.integrals, self.theta_set, self.thetas = [], [], []
        groups, sets = {}, {}

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
                        s = sets.setdefault(shape[0], len(self.thetas))
                        if s == len(self.thetas):
                            self.thetas.append(term.measure.thetas)
                        self.theta_set.append(s)
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
        self._compiled = {}

    def weights(self, t):
        """Each integral group's weighted quadrature at the times ``t``.

        One array of shape (quadrature nodes, len(t)) per group, in the
        order of ``integrals``; a kernel-free group's is a broadcast view.
        Groups with one quadrature and kernel get the same array, so it
        is computed once.
        """
        shared = {}
        out = []
        for term in self.integrals:
            key = term._integral_key()[:3]
            if key not in shared:
                shared[key] = np.broadcast_to(
                    term._weighted(t, 1), (len(term.measure.thetas), len(t)))
            out.append(shared[key])
        return out

    def compiled(self, regimes, merged: bool = True):
        """The coefficient pass over the regimes in the tuple ``regimes``.

        The pass is ``pass_(X, look, W, reg)`` at the states X: ``look(s)``
        returns the delayed states at theta set s as a float64 array,
        one row per theta, and ``W[g]`` is group g's weighted quadrature,
        shaped to broadcast against them.  It computes each basis that
        the regimes read once, and sums each regime's drift and
        diffusion on all rows, term by term from ``0.0 +``, so a sum has
        the bits of summing the terms' ``value`` in term order.  Merged,
        it returns (F, G) with row r in regime reg[r], which must be one
        of ``regimes``: the regimes are merged by ``np.where`` in their
        order, and a pass with zero rows is a ValueError.  Otherwise it
        returns each regime's drift and diffusion in turn, (f, g, f, g,
        ...), and reads no ``reg``.  Each pass compiles once per plan.
        """
        fn = self._compiled.get((regimes, merged))
        if fn is None:
            text, namespace = self._source(regimes, merged)
            exec(compile(text, "<coefficient pass>", "exec"), namespace)
            fn = self._compiled[regimes, merged] = namespace["pass_"]
        return fn

    def _source(self, regimes, merged: bool):
        """The source text of :meth:`compiled`'s pass and the namespace
        that binds its names.

        The text holds only names and integer indices: each coefficient,
        power and exponent is bound by name in the namespace, so models
        that differ only in their values compile to the same text.
        """
        body, names, values = [], {("x", 1): "X"}, {}

        def bind(value):
            name = "k%d" % len(values)
            values[name] = value
            return name

        def basis(key):
            if key in names:
                return names[key]
            name = names[key] = "b%d" % len(names)
            if key[0] == "x":
                body.append("%s = X ** %s" % (name, bind(key[1])))
            elif key[0] == "P":
                body.append("%s = %s * absolute(X) ** %s" % (
                    name, basis(("I", key[1])), bind(key[2])))
            else:
                term, s = self.integrals[key[1]], self.theta_set[key[1]]
                d = "d%d" % s
                if ("D", s) not in names:
                    names["D", s] = d
                    body.append("%s = look(%d)" % (d, s))
                if not term.signed:
                    d = "absolute(%s)" % d
                    if term.delay_exponent != 1.0:
                        d = "%s ** %s" % (d, bind(term.delay_exponent))
                # one theta at a time, in quadrature order: numpy would
                # sum pairwise along a contiguous theta axis
                rows = ["w[%d]" % j for j in range(len(term.measure.thetas))]
                body.append("w = W[%d] * %s" % (key[1], d))
                body.append("%s = %s" % (name, " + ".join(rows[:2])))
                body.extend("%s += %s" % (name, r) for r in rows[2:])
            return name

        def total(terms):
            # A term's products are summed without the zero start of
            # Term.value, which can turn its +0.0 into -0.0 and nothing
            # else.  The running sum starts at 0.0 + v, so it is never
            # -0.0, and adding +0.0 or -0.0 to it gives the same bits.
            sums = ["(%s)" % " + ".join("%s * %s" % (bind(c), basis(key))
                                        for c, key in term)
                    for term in terms if term]
            return " + ".join(["zero"] + sums) if sums else "zeros_like(X)"

        parts = [(total(self.drift[i - 1]), total(self.diffusion[i - 1]))
                 for i in regimes]
        if merged:
            head = ["if not len(reg):",
                    "    raise ValueError('a coefficient pass needs at least "
                    "one row')"]
            tail = ["F = %s" % parts[0][0], "G = %s" % parts[0][1]]
            for i, (f, g) in zip(regimes[1:], parts[1:]):
                tail += ["here = reg == %d" % i, "F = where(here, %s, F)" % f,
                         "G = where(here, %s, G)" % g]
            tail.append("return F, G")
        else:
            head = []
            tail = ["return (%s,)" % ", ".join(p for fg in parts for p in fg)]
        text = "def pass_(X, look, W, reg=None):\n%s\n" % "\n".join(
            "    " + line for line in head + body + tail)
        return text, dict(values, zero=0.0, absolute=np.absolute,
                          where=np.where, zeros_like=np.zeros_like)

    def at_segment(self, view, t, i: int):
        """Regime i's drift and diffusion at one segment at time t.

        ``view.point`` is the current state, and ``view`` maps a theta
        vector to the delayed states, as ``paths.ConstantSegment`` does.
        """
        return self.compiled((i,), merged=False)(
            np.asarray(float(view.point)),
            lambda s: np.asarray(view(self.thetas[s]), dtype=np.float64),
            [term._weighted(t, 0) for term in self.integrals])


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
