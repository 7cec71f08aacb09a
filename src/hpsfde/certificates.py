"""Stability certificates from Lyapunov dissipation coefficients.

The dissipation hypothesis bounds LV by

    a0 + sum_k [ -a_k U_k + sum_l b_kl * (decaying kernel) *
                 U_k(phi(1))^{alpha_kl} U_k(phi(theta))^{1-alpha_kl} ]

with probability measures over theta in [theta_lower, 1].  Everything a
certificate needs is the coefficient table (a0, a_k, b_kl, alpha_kl),
theta_lower, the start time t0 and, for the decaying-kernel form, the
rate floor beta.  The checkers below turn the table into:

  * an existence/uniqueness margin test (all margins <= 0);
  * the best exponential rate epsilon (capped by beta);
  * moment and time-average bounds;
  * the best polynomial rate, by bisection on a monotone feasibility
    predicate to within ``BISECTION_TOL``.

Both rate solvers certify their supremum minus ``STRICTNESS_MARGIN``,
so the certified rate satisfies the strict inequalities.

All arithmetic is plain Python floats; no simulation is involved, so
every verdict is reproducible to the digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (NonPositiveDenominator, NotApplicable, ZeroEpsilon,
                     require_finite, require_index)

STRICTNESS_MARGIN = 1e-9
BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class CertificateRow:
    """Coefficients of one U_k family: a_k plus the (b_kl, alpha_kl) list."""

    a: float
    b_alpha: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        require_finite(a_k=self.a)
        if self.a < 0:
            raise ValueError("a_k must be nonnegative")
        for b, alpha in self.b_alpha:
            require_finite(b_kl=b, alpha_kl=alpha)
            if b < 0:
                raise ValueError("b_kl must be nonnegative")
            if not 0.0 <= alpha <= 1.0:
                raise ValueError("alpha_kl must lie in [0, 1]")


@dataclass(frozen=True)
class CertificateData:
    """Coefficient table of the dissipation hypothesis.

    ``beta`` present means the decaying-kernel form (required for the
    exponential-rate results and constrained by 0 < beta < a_1);
    ``beta`` None means the kernel-free form used by the polynomial
    results.  The table holds no powers: which |x|^p monomials play U_0
    and U_k is the :class:`~hpsfde.lyapunov.LyapunovFamily`'s record.
    """

    a0: float
    rows: Tuple[CertificateRow, ...]
    theta_lower: float
    t0: float
    beta: Optional[float] = None

    def __post_init__(self):
        require_finite(a0=self.a0, t0=self.t0)
        if self.beta is not None:
            require_finite(beta=self.beta)
        if self.a0 < 0:
            raise ValueError("a0 must be nonnegative")
        if not self.rows:
            raise ValueError("need at least one coefficient row")
        if not 0.0 < self.theta_lower < 1.0:
            raise ValueError("theta_lower must lie in (0, 1)")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.beta is not None:
            if not 0.0 < self.beta < self.rows[0].a:
                raise ValueError(
                    "decaying-kernel form needs 0 < beta < a_1 "
                    "(beta=%r, a_1=%r)" % (self.beta, self.rows[0].a))

    @property
    def n_families(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CertificateVerdict:
    """Outcome of one certificate check.

    ``margins`` holds the checked expression per k (negative is good);
    ``epsilon`` the certified rate when one exists; ``epsilon_sup`` the
    solver's estimate of the supremum before the strictness margin;
    ``detail`` rendered inequality instantiations; ``notes`` non-fatal
    flags.
    """

    holds: bool
    margins: Tuple[float, ...]
    epsilon: Optional[float] = None
    epsilon_sup: Optional[float] = None
    detail: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()


def _row_sums(row: CertificateRow) -> Tuple[float, float]:
    """(sum b*alpha, sum b*(1-alpha)) for one row."""
    s_point = 0.0
    s_delay = 0.0
    for b, alpha in row.b_alpha:
        s_point += b * alpha
        s_delay += b * (1.0 - alpha)
    return s_point, s_delay


def existence_margins(c: CertificateData) -> Tuple[float, ...]:
    """Per-k value of -a_k + sum b*alpha + (1/theta_lower) sum b*(1-alpha)."""
    out = []
    for row in c.rows:
        s_point, s_delay = _row_sums(row)
        out.append(-row.a + s_point + s_delay / c.theta_lower)
    return tuple(out)


def check_existence(c: CertificateData) -> CertificateVerdict:
    """Global existence/uniqueness condition: every margin <= 0."""
    margins = existence_margins(c)
    detail = tuple(
        "k=%d: -%.12g + %.12g + (1/%.12g)*%.12g = %.12g (need <= 0)"
        % (k + 1, row.a, _row_sums(row)[0], c.theta_lower,
           _row_sums(row)[1], margin)
        for k, (row, margin) in enumerate(zip(c.rows, margins)))
    return CertificateVerdict(holds=all(m <= 0.0 for m in margins),
                              margins=margins, detail=detail)


def _exponential_sup(c: CertificateData) -> Tuple[Tuple[float, ...], float]:
    """(existence margins, sup epsilon) of the exponential-rate checks."""
    if c.beta is None:
        raise NotApplicable(
            "exponential rate needs the decaying-kernel form (beta)")
    margins = existence_margins(c)
    bad = [k + 1 for k, m in enumerate(margins) if m >= 0.0]
    if bad:
        raise NotApplicable(
            "strict dissipation margin fails for k=%s" % bad)
    return margins, -margins[0]


def solve_epsilon_exponential(c: CertificateData) -> CertificateVerdict:
    """Best exponential rate: min(beta, sup epsilon - STRICTNESS_MARGIN).

    The admissible epsilon satisfies 0 < epsilon <= beta and
    a_1 - epsilon - sum b_1l alpha_1l - (1/theta_lower) sum b_1l
    (1 - alpha_1l) > 0, so the supremum is the k=1 strict margin negated
    and the certified value backs off by ``STRICTNESS_MARGIN``.

    Raises:
      NotApplicable: beta missing (kernel-free form) or some strict
        margin fails.
    """
    margins, sup = _exponential_sup(c)
    eps = min(c.beta, sup - STRICTNESS_MARGIN)
    if eps <= 0.0:
        return CertificateVerdict(
            holds=False, margins=margins, epsilon=None, epsilon_sup=sup,
            detail=("sup epsilon %.12g leaves no room above the strictness "
                    "margin %.3g" % (sup, STRICTNESS_MARGIN),))
    detail = (
        "sup epsilon = %.12g from the k=1 margin; beta cap %.12g"
        % (sup, c.beta),
        "certified epsilon = %.12g" % eps,
    )
    return CertificateVerdict(holds=True, margins=margins, epsilon=eps,
                              epsilon_sup=sup, detail=detail)


def certify_epsilon_exponential(c: CertificateData, epsilon: float
                                ) -> CertificateVerdict:
    """Check one specific exponential rate 0 < epsilon <= beta."""
    margins, sup = _exponential_sup(c)
    room = sup - epsilon
    ok = 0.0 < epsilon <= c.beta and room > 0.0
    detail = (
        "epsilon=%.12g: need 0 < epsilon <= beta=%.12g and "
        "a_1 - epsilon - (point+delay sums) = %.12g > 0"
        % (epsilon, c.beta, room),)
    return CertificateVerdict(holds=ok, margins=margins,
                              epsilon=epsilon if ok else None,
                              epsilon_sup=sup, detail=detail)


def moment_bound(c: CertificateData, epsilon: float) -> float:
    """Asymptotic bound a0 / epsilon on the U_0 moment."""
    if epsilon <= 0.0:
        raise ZeroEpsilon("epsilon must be positive, got %r" % (epsilon,))
    return c.a0 / epsilon


def time_average_denominator(c: CertificateData, k: int) -> float:
    """Denominator of the time-average bound for family k (1-based).

    The kernel factor exp(-beta (1-theta_lower) t0) discounts both the
    point and the delay sums; a missing beta degenerates to factor 1,
    which reproduces the negated existence margin.
    """
    require_index("k", k, c.n_families)
    row = c.rows[k - 1]
    beta_eff = 0.0 if c.beta is None else c.beta
    factor = math.exp(-beta_eff * (1.0 - c.theta_lower) * c.t0)
    s_point, s_delay = _row_sums(row)
    return row.a - factor * s_point - factor * s_delay / c.theta_lower


def time_average_bound(c: CertificateData, k: int) -> float:
    """Asymptotic bound on the time average of E[U_k]."""
    den = time_average_denominator(c, k)
    if den <= 0.0:
        raise NonPositiveDenominator(
            "time-average denominator for k=%d is %.12g" % (k, den))
    return c.a0 / den


def polynomial_margins(c: CertificateData, epsilon: float
                       ) -> Tuple[float, ...]:
    """Rate constraints of the polynomial certificate at a given epsilon.

    k=1:   epsilon - a_1 + sum b(alpha + theta^{-(1+eps)} (1-alpha))
    k>=2:           -a_k + sum b(alpha + theta^{-(1+eps)} (1-alpha))
    Every entry is nondecreasing in epsilon, which makes bisection on
    the joint feasibility valid.
    """
    pow_theta = c.theta_lower ** (-(1.0 + epsilon))
    out = []
    for k, row in enumerate(c.rows):
        s_point, s_delay = _row_sums(row)
        margin = -row.a + s_point + pow_theta * s_delay
        if k == 0:
            margin += epsilon
        out.append(margin)
    return tuple(out)


def solve_epsilon_polynomial(c: CertificateData) -> CertificateVerdict:
    """Best polynomial rate by bisection over the feasibility predicate.

    The bisection stops once its bracket is narrower than
    ``BISECTION_TOL``, and the certified rate backs off from the
    bracket's feasible end by ``STRICTNESS_MARGIN``.  Requires the
    kernel-free form with a0 = 0.  A supplied beta is ignored (the
    polynomial result does not use it) and flagged in the notes.  When
    no positive epsilon is feasible the verdict is holds=False rather
    than an exception.

    Raises:
      NotApplicable: a0 != 0.
    """
    if c.a0 != 0.0:
        raise NotApplicable(
            "polynomial certificate needs a0 = 0, got a0=%r" % c.a0)
    notes = ()
    if c.beta is not None:
        notes = ("beta=%.12g ignored: the polynomial certificate does not "
                 "use the kernel rate" % c.beta,)

    def feasible(e: float) -> bool:
        return all(m < 0.0 for m in polynomial_margins(c, e))

    lo = 1e-12
    if not feasible(lo):
        return CertificateVerdict(
            holds=False, margins=polynomial_margins(c, lo), epsilon=None,
            detail=("infeasible already as epsilon -> 0+",), notes=notes)
    hi = c.rows[0].a + 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    eps = lo - STRICTNESS_MARGIN
    if eps <= 0.0 or not feasible(eps):
        return CertificateVerdict(
            holds=False, margins=polynomial_margins(c, lo), epsilon=None,
            epsilon_sup=lo,
            detail=("sup epsilon %.12g leaves no room above the strictness "
                    "margin %.3g" % (lo, STRICTNESS_MARGIN),),
            notes=notes)
    margins = polynomial_margins(c, eps)
    detail = tuple(
        "k=%d margin at epsilon=%.12g: %.12g (need < 0)"
        % (k + 1, eps, mgn) for k, mgn in enumerate(margins))
    return CertificateVerdict(holds=True, margins=margins, epsilon=eps,
                              epsilon_sup=lo, detail=detail, notes=notes)
