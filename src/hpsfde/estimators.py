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
in the report.  Reductions are plain sums over the path axis, so
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
from .paths import _atol

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
        ``dest`` may be a filesystem path or an open text file.
        """
        own = not hasattr(dest, "write")
        fh = open(dest, "w", newline="") if own else dest
        try:
            fh.write("t,statistic\n")
            for t, s in zip(self.series_times, self.series_values):
                fh.write("%.17g,%.17g\n" % (t, s))
            fh.write("# kind,%s\n" % self.kind)
            fh.write("# fitted_rate,%.17g\n" % self.fitted_rate)
            fh.write("# stderr,%.17g\n" % self.stderr)
            fh.write("# window,%.17g,%.17g\n" % self.window)
            fh.write("# n_exploded,%d\n" % self.n_exploded)
            fh.write("# n_paths_used,%d\n" % self.n_paths_used)
        finally:
            if own:
                fh.close()


def _surviving_values(batch: SimulationBatch, min_paths: int):
    """Grid times and state values of the non-exploded paths."""
    keep = ~batch.exploded_mask
    n_used = int(keep.sum())
    if n_used == 0:
        raise AllExploded("all %d paths exploded" % batch.n_paths)
    if n_used < min_paths:
        raise InsufficientPaths(
            "%d non-exploded paths, need at least %d" % (n_used, min_paths))
    return batch.uniform_times, batch.uniform_values[keep], n_used


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
    """Report of the per-path OLS slopes of log|x(t)|^p on abscissa(t)."""
    times, vals, n_used = _surviving_values(batch, min_paths)
    logs = p * np.log(np.maximum(np.abs(vals), LOG_FLOOR))
    mask = _window_mask(times, batch.t0, batch.T, window)
    slopes = _per_path_slopes(abscissa(times[mask]), logs[:, mask])
    stderr = (float(slopes.std(ddof=1)) / math.sqrt(n_used)
              if n_used > 1 else float("nan"))
    return RateReport(kind=kind, fitted_rate=float(slopes.max()),
                      stderr=stderr,
                      window=(float(times[mask][0]), float(times[mask][-1])),
                      n_paths_used=n_used, n_exploded=batch.n_exploded,
                      series_times=times.copy(),
                      series_values=logs.mean(axis=0),
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
    times, vals, n_used = _surviving_values(batch, min_paths)
    stat = np.abs(vals) ** p
    m_t = stat.mean(axis=0)
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
    times, vals, n_used = _surviving_values(batch, min_paths)
    stat = np.abs(vals) ** p
    dt_seg = np.diff(times)
    seg = 0.5 * (stat[:, 1:] + stat[:, :-1]) * dt_seg[None, :]
    per_path_integral = np.concatenate(
        (np.zeros((stat.shape[0], 1)), np.cumsum(seg, axis=1)), axis=1)
    denom = times - batch.t0
    m_integral = per_path_integral.mean(axis=0)
    series = np.empty_like(m_integral)
    series[0] = stat[:, 0].mean()
    series[1:] = m_integral[1:] / denom[1:]
    span = times[-1] - batch.t0
    per_path_avg = per_path_integral[:, -1] / span
    stderr = (float(per_path_avg.std(ddof=1)) / math.sqrt(n_used)
              if n_used > 1 else float("nan"))
    return RateReport(kind="time-average", fitted_rate=float(series[-1]),
                      stderr=stderr,
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
