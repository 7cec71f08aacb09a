"""Exception types and argument checks shared across the package.

Every error raised by this package derives from :class:`Error`, so callers
can catch the whole family with one except clause.  The subclasses mirror
the distinct failure modes of the domain objects: generator matrices,
initial data, coefficient models, batch statistics, and certificate
arithmetic.  Delayed lookups raise nothing: every path that the package
reads is a batch's, whose history covers each lookup.  The two
argument checks that several modules share raise plain ValueError.
"""

import math
import operator


def require_finite(**values) -> None:
    """ValueError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def require_index(name: str, value, n=None) -> None:
    """ValueError unless ``value`` is an integer in 1..n, or >= 1 when
    ``n`` is None.

    Python and numpy integers qualify; bools and floats do not, even
    integral ones.
    """
    top = math.inf if n is None else n
    try:
        ok = not isinstance(value, bool) and 1 <= operator.index(value) <= top
    except TypeError:
        ok = False
    if not ok:
        raise ValueError("%s must be an integer %s, got %r" % (
            name, ">= 1" if n is None else "in 1..%d" % n, value))


class Error(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Markov chain generators
# ---------------------------------------------------------------------------

class NegativeOffDiagonal(Error):
    """An off-diagonal generator entry is negative."""


class RowSumNonZero(Error):
    """A generator row does not sum to zero within tolerance."""


class ReducibleChain(Error):
    """The generator's transpose has a null space of dimension > 1, so the
    stationary distribution is not unique."""


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

class NonFiniteState(Error, ValueError):
    """A model's initial data, a constant or a table value, is NaN or
    infinite.  It is a ValueError too, as the other initial-data checks
    are."""


# ---------------------------------------------------------------------------
# Coefficient models
# ---------------------------------------------------------------------------

class DimensionMismatch(Error):
    """A Lyapunov family and a model disagree on the number of regimes."""


class UnsupportedMeasure(Error):
    """A measure violates its constraints (mass, support, or kind)."""


# ---------------------------------------------------------------------------
# Batch statistics and estimators
# ---------------------------------------------------------------------------

class InsufficientPaths(Error):
    """Fewer usable paths than the statistic requires (minimum 100)."""


class AllExploded(Error):
    """Every path in the batch exploded before the evaluation time."""


class DegenerateWindow(Error):
    """The regression window contains too few grid points to fit a slope."""


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class NotApplicable(Error):
    """The certificate data does not have the structure this check needs."""


class NonPositiveDenominator(Error):
    """A bound's denominator is not positive, so the bound is undefined."""


class ZeroEpsilon(Error):
    """A rate bound was requested with a non-positive epsilon."""
