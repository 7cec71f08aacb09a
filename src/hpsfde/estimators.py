"""Monte Carlo decay-rate estimation from simulated path ensembles.

Four estimators, one per stability claim:

  * estimate_moment_rate    slope of log E|x(t)|^p versus t
  * estimate_as_rate        per-path slope of log|x(t)|^p versus t
  * estimate_time_average   (1/(t - t0)) * integral of E|x(s)|^p ds
  * estimate_polynomial_rate  per-path slope of log|x(t)|^p versus log(1+t)

The moment estimator fits the log of the ensemble mean; the
almost-sure estimators fit each path separately and report the worst
(largest) slope together with distribution quantiles.  The distinction
matters: the two statistics converge to different limits whenever the
paths have heavy relative dispersion.

All estimators fit on the tail window [t0 + (T - t0)/2, T] by default,
since the targets are limsup statements and early transients bias the
slopes.  Exploded paths are excluded from every statistic and counted
in the report.  Every power p must be finite and > 0
(:func:`require_power`).  Reductions are plain sums over the path axis, so
results do not depend on path ordering or on how the batch was
partitioned into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import AllExploded, DegenerateWindow, InsufficientPaths
from .integrator import SimulationBatch
from .paths import _atol, write_table

LOG_FLOOR = 1e-300
MIN_PATHS = 100
QUANTILE_LEVELS = (0.5, 0.9, 1.0)


@dataclass(eq=False)
class RateReport:
    """Fitted decay rate with its regression window and diagnostics.

    ``series_times``/``series_values`` tabulate the fitted statistic on
    the full simulation grid (the mean of |x|^p, its log, or the running
    time average, depending on ``kind``); the regression itself uses
    only the ``window`` portion.  ``quantiles`` is populated by the
    per-path estimators with the {0.5, 0.9, 1.0} quantiles of the
    per-path slopes.
    """

    kind: str
    fitted_rate: float
    stderr: float
    window: Tuple[float, float]
    n_paths_used: int
    n_exploded: int
    series_times: np.ndarray = field(repr=False)
    series_values: np.ndarray = field(repr=False)
    quantiles: Optional[Dict[float, float]] = None

    def statistic_at(self, t: float) -> float:
        """The tabulated statistic at time t, linearly interpolated."""
        if not self.series_times[0] <= t <= self.series_times[-1]:
            raise ValueError("t=%r outside tabulated range [%g, %g]"
                             % (t, self.series_times[0],
                                self.series_times[-1]))
        return float(np.interp(t, self.series_times, self.series_values))

    def to_csv(self, dest) -> None:
        """Write the series plus a footer block of fitted quantities.

        Data rows are ``t,statistic``; footer lines start with ``#``.
        ``dest`` is as for :func:`paths.write_table`.
        """
        write_table(dest, ("t", "statistic"),
                    (self.series_times, self.series_values),
                    footer=("# kind,%s" % self.kind,
                            "# fitted_rate,%.17g" % self.fitted_rate,
                            "# stderr,%.17g" % self.stderr,
                            "# window,%.17g,%.17g" % self.window,
                            "# n_exploded,%d" % self.n_exploded,
                            "# n_paths_used,%d" % self.n_paths_used))


def standard_error(samples: np.ndarray) -> float:
    """Standard error of the mean of per-path samples; NaN below two."""
    n = len(samples)
    if n < 2:
        return float("nan")
    return float(samples.std(ddof=1)) / math.sqrt(n)


def require_power(p, name: str = "p") -> None:
    """ValueError unless the power p of |x|^p is finite and > 0."""
    if not 0 < p < math.inf:
        raise ValueError("%s must be finite and > 0, got %r" % (name, p))


def _n_surviving(batch: SimulationBatch, p: float, min_paths: int) -> int:
    """The count of non-exploded paths, which must reach ``min_paths``;
    the power p of the statistic is checked first."""
    require_power(p)
    n_used = batch.n_paths - batch.n_exploded
    if n_used == 0:
        raise AllExploded("all %d paths exploded" % batch.n_paths)
    if n_used < min_paths:
        raise InsufficientPaths(
            "%d non-exploded paths, need at least %d" % (n_used, min_paths))
    return n_used


def _surviving_abs(batch: SimulationBatch, cols: slice = slice(None),
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """|x| of the non-exploded paths at the grid columns ``cols``.

    |x| is written to ``out``, or else to one fresh array, which the
    estimators overwrite in place; ``batch.uniform_values`` is read,
    never written.
    """
    vals = batch.uniform_values[:, cols]
    if batch.n_exploded:
        vals = vals[~batch.exploded_mask]
        if out is None:
            out = vals
    return np.abs(vals, out=out)


def _log_abs(stat: np.ndarray, p: float) -> np.ndarray:
    """p log max(|x|, LOG_FLOOR), in place over the array |x|."""
    np.maximum(stat, LOG_FLOOR, out=stat)
    np.log(stat, out=stat)
    stat *= p
    return stat


def moment_curve(batch: SimulationBatch, p: float,
                 min_paths: int = 1) -> np.ndarray:
    """Mean of |x(t)|^p over the non-exploded paths on the uniform grid."""
    _n_surviving(batch, p, min_paths)
    stat = _surviving_abs(batch)
    stat **= p
    return stat.mean(axis=0)


def _window_mask(times: np.ndarray, t0: float, T: float,
                 window: Optional[Tuple[float, float]]) -> np.ndarray:
    if window is None:
        window = (t0 + 0.5 * (T - t0), T)
    a, b = window
    tol = _atol(T - t0)
    mask = (times >= a - tol) & (times <= b + tol)
    if mask.sum() < 2:
        raise DegenerateWindow(
            "window [%g, %g] contains %d grid point(s), need >= 2"
            % (a, b, int(mask.sum())))
    return mask


def _ols_slope(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Least-squares slope of y on x with its residual-based stderr."""
    xc = x - x.mean()
    sxx = float((xc * xc).sum())
    slope = float((xc * y).sum() / sxx)
    n = len(x)
    if n > 2:
        resid = y - y.mean() - slope * xc
        s2 = float((resid * resid).sum()) / (n - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = float("nan")
    return slope, stderr


def _per_path_slopes(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """OLS slope of each row of Y against x."""
    xc = x - x.mean()
    sxx = float((xc * xc).sum())
    return Y.dot(xc) / sxx


def _quantile_summary(slopes: np.ndarray) -> Dict[float, float]:
    qs = np.quantile(slopes, QUANTILE_LEVELS)
    return {lvl: float(v) for lvl, v in zip(QUANTILE_LEVELS, qs)}


def _pathwise_fit(kind, batch, p, window, min_paths, abscissa) -> RateReport:
    """Report of the per-path OLS slopes of log|x(t)|^p on abscissa(t).

    The slopes are fitted on the logs of the window's columns alone,
    held column-major like the masked copy ``logs[:, mask]`` that they
    were first fitted on: ``Y.dot`` rounds by the layout of Y.  Without
    explosions, the full table of logs for the series then reuses the
    window's buffer.  A window array of its own, once freed, can stay
    resident under glibc's malloc, whose mmap threshold rises to the
    largest block freed, and add to every later peak.
    """
    n_used = _n_surviving(batch, p, min_paths)
    times = batch.uniform_times
    mask = _window_mask(times, batch.t0, batch.T, window)
    cols = np.flatnonzero(mask)
    width = len(cols) if batch.n_exploded else len(times)
    buf = np.empty(n_used * width)
    win = buf[:n_used * len(cols)].reshape(n_used, len(cols), order="F")
    _surviving_abs(batch, slice(cols[0], cols[-1] + 1), out=win)
    slopes = _per_path_slopes(abscissa(times[mask]), _log_abs(win, p))
    if batch.n_exploded:
        del buf, win
        logs = _surviving_abs(batch)
    else:
        logs = _surviving_abs(batch, out=buf.reshape(n_used, width))
    return RateReport(kind=kind, fitted_rate=float(slopes.max()),
                      stderr=standard_error(slopes),
                      window=(float(times[mask][0]), float(times[mask][-1])),
                      n_paths_used=n_used, n_exploded=batch.n_exploded,
                      series_times=times.copy(),
                      series_values=_log_abs(logs, p).mean(axis=0),
                      quantiles=_quantile_summary(slopes))


def estimate_moment_rate(batch: SimulationBatch, p: float,
                         window: Optional[Tuple[float, float]] = None,
                         min_paths: int = MIN_PATHS) -> RateReport:
    """Exponential decay rate of the p-th absolute moment.

    Fits the slope of log(mean over paths of |x(t)|^p) against t on the
    tail window.  A certified rate epsilon predicts a slope <= -epsilon.

    Returns a report with kind "moment-exponential"; ``series_values``
    holds the moment curve itself (not its log) on the full grid.
    """
    m_t = moment_curve(batch, p, min_paths)
    times = batch.uniform_times
    n_used = batch.n_paths - batch.n_exploded
    mask = _window_mask(times, batch.t0, batch.T, window)
    y = np.log(np.maximum(m_t[mask], LOG_FLOOR))
    slope, stderr = _ols_slope(times[mask], y)
    return RateReport(kind="moment-exponential", fitted_rate=slope,
                      stderr=stderr,
                      window=(float(times[mask][0]), float(times[mask][-1])),
                      n_paths_used=n_used, n_exploded=batch.n_exploded,
                      series_times=times.copy(), series_values=m_t)


def estimate_as_rate(batch: SimulationBatch, p: float,
                     window: Optional[Tuple[float, float]] = None,
                     min_paths: int = MIN_PATHS) -> RateReport:
    """Pathwise exponential decay rate of |x(t)|^p.

    Fits log|x(t)|^p against t separately for every surviving path and
    reports the largest slope (the worst path); the certified rate
    bounds every path, so the max is the quantity to compare.  States
    are floored at 1e-300 in magnitude before the log so that paths
    reaching numerical zero stay finite.

    ``fitted_rate`` is the max; ``quantiles`` holds the {0.5, 0.9, 1.0}
    quantiles of the per-path slopes; ``stderr`` is the standard error
    of the mean slope.  ``series_values`` holds the across-path mean of
    log|x(t)|^p.
    """
    return _pathwise_fit("as-exponential", batch, p, window, min_paths,
                         abscissa=lambda t: t)


def estimate_time_average(batch: SimulationBatch, p: float,
                          min_paths: int = MIN_PATHS) -> RateReport:
    """Running time average of the p-th absolute moment.

    Computes A(t) = (integral from t0 to t of mean |x(s)|^p ds)/(t - t0)
    by the trapezoid rule on the simulation grid and reports A(T).  For
    a constant path x = c this gives exactly c^p at every t.  A(t0) is
    taken as the integrand's limit, mean |x(t0)|^p.

    ``stderr`` is the standard error across per-path time averages.
    """
    n_used = _n_surviving(batch, p, min_paths)
    times, stat = batch.uniform_times, _surviving_abs(batch)
    stat **= p
    series = np.empty(len(times))
    series[0] = stat[:, 0].mean()
    # trapezoid areas; after the cumsum integral[:, j] is each path's
    # integral over [t0, times[j + 1]]
    integral = stat[:, 1:] + stat[:, :-1]
    integral *= 0.5
    integral *= np.diff(times)
    np.cumsum(integral, axis=1, out=integral)
    series[1:] = integral.mean(axis=0) / (times[1:] - batch.t0)
    per_path_avg = integral[:, -1] / (times[-1] - batch.t0)
    return RateReport(kind="time-average", fitted_rate=float(series[-1]),
                      stderr=standard_error(per_path_avg),
                      window=(float(batch.t0), float(batch.T)),
                      n_paths_used=n_used, n_exploded=batch.n_exploded,
                      series_times=times.copy(), series_values=series)


def estimate_polynomial_rate(batch: SimulationBatch, p: float,
                             window: Optional[Tuple[float, float]] = None,
                             min_paths: int = MIN_PATHS) -> RateReport:
    """Pathwise polynomial decay rate: log|x(t)|^p against log(1+t).

    A certified polynomial rate epsilon predicts every path's slope in
    these coordinates to be <= -epsilon eventually.  Requires
    log(1+T) >= 3 so the abscissa spans enough decades to resolve a
    slope; shorter horizons raise DegenerateWindow.

    Report layout matches estimate_as_rate (max slope, quantiles, mean
    log series) with kind "as-polynomial".
    """
    if math.log1p(batch.T) < 3.0:
        raise DegenerateWindow(
            "log(1+T) = %.3f < 3; horizon too short for a log-log fit"
            % math.log1p(batch.T))
    return _pathwise_fit("as-polynomial", batch, p, window, min_paths,
                         abscissa=np.log1p)
