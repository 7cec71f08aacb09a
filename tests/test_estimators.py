"""Decay-rate estimators on synthetic ensembles with known rates."""
from __future__ import annotations

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from hpsfde.cli import _write_summary
from hpsfde.errors import AllExploded, DegenerateWindow, InsufficientPaths
from hpsfde.estimators import (LOG_FLOOR, RateReport, _ols_slope,
                               _per_path_slopes, _quantile_summary,
                               _window_mask, estimate_as_rate,
                               estimate_moment_rate, estimate_polynomial_rate,
                               estimate_time_average, moment_curve,
                               require_power, standard_error)
from hpsfde.integrator import IntegratorConfig, SimulationBatch, run_batch
from hpsfde.paths import write_table
from hpsfde.presets import preset

TIMES_10 = np.linspace(0.0, 10.0, 201)
TIMES_30 = np.linspace(0.0, 30.0, 301)


def exp_batch(rate=2.0, n_paths=150, times=TIMES_10):
    vals = np.exp(-rate * times)[None, :] * np.ones((n_paths, 1))
    return SimulationBatch.synthetic(times, vals)


def const_batch(c=0.8, n_paths=150, times=TIMES_10):
    return SimulationBatch.synthetic(times, np.full((n_paths, len(times)), c))


# ---------------------------------------------------------------------------
# exact rates on synthetic ensembles
# ---------------------------------------------------------------------------

def test_moment_rate_recovers_exponential_decay():
    rep = estimate_moment_rate(exp_batch(rate=2.0), p=1.0)
    assert rep.kind == "moment-exponential"
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-9)
    assert rep.window == (5.0, 10.0)
    assert rep.n_paths_used == 150
    assert rep.n_exploded == 0
    assert rep.quantiles is None
    # series holds the moment itself
    assert rep.series_values[0] == pytest.approx(1.0)


def test_moment_rate_scales_with_power():
    batch = exp_batch(rate=2.0)
    assert estimate_moment_rate(batch, p=2.0).fitted_rate == pytest.approx(
        -4.0, abs=1e-9)
    assert estimate_moment_rate(batch, p=0.5).fitted_rate == pytest.approx(
        -1.0, abs=1e-9)


def test_as_rate_on_identical_paths():
    rep = estimate_as_rate(exp_batch(rate=2.0), p=1.0)
    assert rep.kind == "as-exponential"
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-9)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)
    assert rep.quantiles[0.5] == pytest.approx(-2.0, abs=1e-9)
    assert rep.quantiles[1.0] == pytest.approx(rep.fitted_rate, abs=1e-15)


def test_as_rate_reports_worst_path_and_quantiles():
    # 50 paths at rate 3, 100 at rate 2, 50 at rate 1; the estimator
    # must surface the slowest decay as the fitted value
    rates = np.array([3.0] * 50 + [2.0] * 100 + [1.0] * 50)
    vals = np.exp(-rates[:, None] * TIMES_10[None, :])
    rep = estimate_as_rate(SimulationBatch.synthetic(TIMES_10, vals), p=1.0)
    assert rep.fitted_rate == pytest.approx(-1.0, abs=1e-9)
    assert rep.quantiles[0.5] == pytest.approx(-2.0, abs=1e-9)
    assert rep.quantiles[0.9] == pytest.approx(-1.0, abs=1e-9)
    assert rep.quantiles[1.0] == pytest.approx(-1.0, abs=1e-9)


def test_polynomial_rate_recovers_power_law():
    vals = (1.0 + TIMES_30[None, :]) ** -1.0 * np.ones((150, 1))
    rep = estimate_polynomial_rate(SimulationBatch.synthetic(TIMES_30, vals),
                                   p=4.0)
    assert rep.kind == "as-polynomial"
    assert rep.fitted_rate == pytest.approx(-4.0, abs=1e-9)
    assert rep.quantiles[1.0] == pytest.approx(-4.0, abs=1e-9)


def test_polynomial_rate_needs_long_horizon():
    with pytest.raises(DegenerateWindow, match="log"):
        estimate_polynomial_rate(exp_batch(times=TIMES_10), p=2.0)


def test_time_average_constant_paths_exact():
    rep = estimate_time_average(const_batch(c=0.8), p=2.0)
    assert rep.kind == "time-average"
    assert rep.window == (0.0, 10.0)
    assert np.allclose(rep.series_values, 0.64, atol=1e-12)
    assert rep.fitted_rate == pytest.approx(0.64, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_time_average_exponential_decay():
    rep = estimate_time_average(exp_batch(rate=2.0), p=1.0)
    # (1/T) integral e^{-2s} ds with the value at t0 defined by the
    # integrand limit
    assert rep.series_values[0] == pytest.approx(1.0)
    expect = (1.0 - math.exp(-20.0)) / 20.0
    assert rep.fitted_rate == pytest.approx(expect, rel=1e-3)
    mid = rep.statistic_at(5.0)
    assert mid == pytest.approx((1.0 - math.exp(-10.0)) / 10.0, rel=1e-3)


def test_moment_rate_zero_for_constant_paths():
    rep = estimate_moment_rate(const_batch(), p=2.0)
    assert rep.fitted_rate == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_explicit_window_is_honored():
    rep = estimate_moment_rate(exp_batch(), p=1.0, window=(2.0, 4.0))
    assert rep.window == (2.0, 4.0)
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-9)


def test_window_with_too_few_points_is_degenerate():
    with pytest.raises(DegenerateWindow):
        estimate_moment_rate(exp_batch(), p=1.0, window=(4.001, 4.002))


def test_two_point_window_has_no_stderr():
    rep = estimate_moment_rate(exp_batch(), p=1.0, window=(9.95, 10.0))
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-6)
    assert math.isnan(rep.stderr)


# ---------------------------------------------------------------------------
# exclusion of exploded paths
# ---------------------------------------------------------------------------

def test_all_exploded_raises():
    batch = exp_batch(n_paths=10)
    batch.exploded_at[:] = 5.0
    with pytest.raises(AllExploded):
        estimate_moment_rate(batch, p=2.0, min_paths=1)


def test_insufficient_paths_raises_below_floor():
    batch = exp_batch(n_paths=150)
    batch.exploded_at[:60] = 5.0  # 90 survivors < 100
    with pytest.raises(InsufficientPaths):
        estimate_moment_rate(batch, p=2.0)
    rep = estimate_moment_rate(batch, p=2.0, min_paths=50)
    assert rep.n_paths_used == 90
    assert rep.n_exploded == 60
    assert rep.n_paths_used + rep.n_exploded == 150


def test_exploded_paths_do_not_contaminate_the_fit():
    vals = np.exp(-2.0 * TIMES_10)[None, :] * np.ones((120, 1))
    vals[:10] = 1e6  # junk rows marked exploded below
    batch = SimulationBatch.synthetic(TIMES_10, vals)
    batch.exploded_at[:10] = 3.0
    rep = estimate_moment_rate(batch, p=1.0)
    assert rep.n_paths_used == 110
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-9)


def test_single_path_min_paths_one():
    batch = exp_batch(n_paths=1)
    rep = estimate_as_rate(batch, p=1.0, min_paths=1)
    assert rep.fitted_rate == pytest.approx(-2.0, abs=1e-9)
    assert math.isnan(rep.stderr)


# ---------------------------------------------------------------------------
# statistical behavior
# ---------------------------------------------------------------------------

def test_results_do_not_depend_on_path_order():
    rng = np.random.default_rng(5)
    rates = rng.uniform(0.5, 3.0, size=200)
    vals = np.exp(-rates[:, None] * TIMES_10[None, :])
    a = SimulationBatch.synthetic(TIMES_10, vals)
    b = SimulationBatch.synthetic(TIMES_10, vals[rng.permutation(200)])
    for est, kwargs in ((estimate_moment_rate, {}), (estimate_as_rate, {}),
                        (estimate_time_average, {})):
        ra = est(a, p=2.0, **kwargs)
        rb = est(b, p=2.0, **kwargs)
        assert ra.fitted_rate == pytest.approx(rb.fitted_rate, rel=1e-12)
        assert ra.stderr == pytest.approx(rb.stderr, rel=1e-9)


def test_as_rate_stderr_scales_inverse_sqrt_n():
    rng = np.random.default_rng(9)
    eta = rng.uniform(-0.3, 0.3, size=8000)
    vals = np.exp(-(1.0 + eta)[:, None] * TIMES_10[None, :])
    stderrs = {}
    for n in (500, 2000, 8000):
        batch = SimulationBatch.synthetic(TIMES_10, vals[:n])
        stderrs[n] = estimate_as_rate(batch, p=1.0).stderr
    assert stderrs[500] / stderrs[2000] == pytest.approx(2.0, rel=0.2)
    assert stderrs[2000] / stderrs[8000] == pytest.approx(2.0, rel=0.2)


def test_as_rate_on_closed_form_geometric_brownian_paths():
    # x = exp((mu - sigma^2/2) t + sigma W): for p = 2 the pathwise
    # exponent is 2 mu - sigma^2 = 0.13 with mu = 0.07, sigma = 0.1
    rng = np.random.default_rng(21)
    times = np.linspace(0.0, 21.0, 2101)
    dt = times[1] - times[0]
    dW = math.sqrt(dt) * rng.standard_normal((200, 2100))
    W = np.concatenate((np.zeros((200, 1)), np.cumsum(dW, axis=1)), axis=1)
    vals = np.exp(0.065 * times[None, :] + 0.1 * W)
    rep = estimate_as_rate(SimulationBatch.synthetic(times, vals), p=2.0)
    assert rep.quantiles[0.5] == pytest.approx(0.13, abs=0.06)
    assert rep.fitted_rate >= rep.quantiles[0.5]
    assert rep.fitted_rate == rep.quantiles[1.0]


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def test_report_csv_round_trip(tmp_path):
    rep = estimate_time_average(const_batch(c=0.5, n_paths=120), p=2.0)
    out = tmp_path / "report.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,statistic"
    data = [ln for ln in lines if not ln.startswith("#") and ln != lines[0]]
    assert len(data) == len(TIMES_10)
    t0, s0 = data[0].split(",")
    assert float(t0) == 0.0
    assert float(s0) == pytest.approx(0.25)
    footer = {ln.split(",")[0]: ln for ln in lines if ln.startswith("#")}
    assert footer["# kind"].endswith("time-average")
    assert float(footer["# fitted_rate"].split(",")[1]) == rep.fitted_rate
    assert footer["# n_paths_used"].split(",")[1] == "120"
    assert footer["# n_exploded"].split(",")[1] == "0"
    window = footer["# window"].split(",")[1:]
    assert [float(w) for w in window] == [0.0, 10.0]


def test_report_csv_accepts_file_objects(tmp_path):
    rep = estimate_moment_rate(exp_batch(), p=1.0)
    buf = io.StringIO()
    rep.to_csv(buf)
    assert buf.getvalue().startswith("t,statistic\n")
    assert "# stderr," in buf.getvalue()
    # a file path and a text stream get the same UTF-8 bytes
    out = tmp_path / "report.csv"
    rep.to_csv(str(out))
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


def test_statistic_at_interpolates_and_validates():
    rep = estimate_moment_rate(exp_batch(rate=1.0), p=1.0)
    grid_val = rep.statistic_at(float(TIMES_10[7]))
    assert grid_val == pytest.approx(float(np.exp(-TIMES_10[7])), rel=1e-12)
    with pytest.raises(ValueError):
        rep.statistic_at(11.0)
    with pytest.raises(ValueError):
        rep.statistic_at(-0.1)


# ---------------------------------------------------------------------------
# in-place arithmetic against the copying expressions
# ---------------------------------------------------------------------------

# Peak traced allocation of one call, as a multiple of the value array,
# with or without exploded paths; the copying expressions peaked at 3, 3,
# 3 and 5.  The a.s. estimators fit on the window's |x| before the full
# table of logs is built, so they peak at that table, about 1.0.
PEAK_BOUNDS = {estimate_moment_rate: 1.25, estimate_as_rate: 1.25,
               estimate_polynomial_rate: 1.25, estimate_time_average: 3.25}


def wide_batch(n_exploded):
    """2000 signed random-walk paths on [1, 21], some exploded, some zero."""
    rng = np.random.default_rng(17)
    times = np.linspace(1.0, 21.0, 1001)
    walk = 0.02 * np.cumsum(rng.standard_normal((2000, len(times))), axis=1)
    vals = np.exp(walk - 0.3 * times)
    vals[::5] *= -1.0
    vals[11, 600:] = 0.0
    exploded_at = np.full(2000, np.nan)
    for row, t in list(zip((4, 1000, 1999), (3.0, 9.5, 20.0)))[:n_exploded]:
        exploded_at[row] = t
        vals[row, times > t] = np.nan
    return SimulationBatch.synthetic(times, vals, exploded_at=exploded_at)


def copying_reference(batch, p):
    """Each estimator's report fields, by the expressions that copied the
    surviving values and every intermediate array."""
    keep = ~batch.exploded_mask
    times, vals = batch.uniform_times, batch.uniform_values[keep]
    mask = _window_mask(times, batch.t0, batch.T, None)
    window = (float(times[mask][0]), float(times[mask][-1]))
    common = dict(n_paths_used=int(keep.sum()), n_exploded=batch.n_exploded,
                  series_times=times)
    stat = np.abs(vals) ** p
    m_t = stat.mean(axis=0)
    slope, stderr = _ols_slope(times[mask],
                               np.log(np.maximum(m_t[mask], LOG_FLOOR)))
    want = {estimate_moment_rate: dict(
        kind="moment-exponential", fitted_rate=slope, stderr=stderr,
        window=window, series_values=m_t, quantiles=None, **common)}
    logs = p * np.log(np.maximum(np.abs(vals), LOG_FLOOR))
    for est, kind, abscissa in (
            (estimate_as_rate, "as-exponential", lambda t: t),
            (estimate_polynomial_rate, "as-polynomial", np.log1p)):
        slopes = _per_path_slopes(abscissa(times[mask]), logs[:, mask])
        want[est] = dict(kind=kind, fitted_rate=float(slopes.max()),
                         stderr=standard_error(slopes), window=window,
                         series_values=logs.mean(axis=0),
                         quantiles=_quantile_summary(slopes), **common)
    seg = 0.5 * (stat[:, 1:] + stat[:, :-1]) * np.diff(times)[None, :]
    integral = np.concatenate(
        (np.zeros((stat.shape[0], 1)), np.cumsum(seg, axis=1)), axis=1)
    m_integral = integral.mean(axis=0)
    series = np.empty_like(m_integral)
    series[0] = stat[:, 0].mean()
    series[1:] = m_integral[1:] / (times - batch.t0)[1:]
    want[estimate_time_average] = dict(
        kind="time-average", fitted_rate=float(series[-1]),
        stderr=standard_error(integral[:, -1] / (times[-1] - batch.t0)),
        window=(float(batch.t0), float(batch.T)), series_values=series,
        quantiles=None, **common)
    return want


@pytest.mark.parametrize("p", [2.0, 0.5, 3.0])
@pytest.mark.parametrize("n_exploded", [0, 3])
def test_estimators_match_copying_reference_in_place(n_exploded, p):
    batch = wide_batch(n_exploded)
    before = batch.uniform_values.tobytes()
    nbytes = batch.uniform_values.nbytes
    fields = {f.name for f in dataclasses.fields(RateReport)}
    for est, want in copying_reference(batch, p).items():
        assert set(want) == fields
        tracemalloc.start()
        try:
            rep = est(batch, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name, value in want.items():
            got = getattr(rep, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype, (est.__name__, name)
                assert np.array_equal(got, value), (est.__name__, name)
            else:
                assert got == value, (est.__name__, name)
        assert batch.uniform_values.tobytes() == before, est.__name__
        assert peak <= PEAK_BOUNDS[est] * nbytes, (est.__name__,
                                                   peak / nbytes)


@pytest.mark.parametrize("n_exploded", [0, 3])
def test_summary_moments_match_copying_reference(n_exploded):
    batch = dataclasses.replace(wide_batch(n_exploded),
                                model=preset("exp_stable"))
    before = batch.uniform_values.tobytes()
    moments = [2.0, 0.5, 3]
    keep = ~batch.exploded_mask
    want = io.StringIO()
    write_table(want, ["time", "occ_1", "occ_2"]
                + ["moment_%g" % p for p in moments],
                [batch.uniform_times]
                + [(batch.regimes_uniform == i).mean(axis=0) for i in (1, 2)]
                + [(np.abs(batch.uniform_values[keep]) ** p).mean(axis=0)
                   for p in moments])
    got = io.StringIO()
    _write_summary(batch, moments, got)
    assert got.getvalue() == want.getvalue()
    assert batch.uniform_values.tobytes() == before


# ---------------------------------------------------------------------------
# on simulated batches
# ---------------------------------------------------------------------------

def test_estimators_on_simulated_stable_preset():
    m = preset("exp_stable")
    batch = run_batch(m, IntegratorConfig(dt=0.02, T=6.0), n_paths=150,
                      i0=1, root_seed=31, keep_paths=False)
    assert batch.n_exploded == 0
    moment = estimate_moment_rate(batch, p=2.0)
    assert moment.fitted_rate < -0.05
    avg = estimate_time_average(batch, p=2.0)
    assert 0.0 < avg.fitted_rate < 0.25  # initial value 0.5 squared
    worst = estimate_as_rate(batch, p=2.0)
    # the max over a short late window is noisy for such fast decay;
    # the median per-path slope is the stable indicator here
    assert worst.quantiles[0.5] < -0.5
    assert worst.fitted_rate == worst.quantiles[1.0]


@pytest.mark.parametrize("p", [-2.0, 0.0, float("nan"), float("inf"),
                               -float("inf")])
def test_every_estimator_needs_a_finite_positive_power(p):
    # a negative power fits a growth rate to a decaying batch, NaN and inf
    # give NaN, and p = 0 gives 0.0: none is a rate of |x|^p
    batch = exp_batch(rate=2.0, times=TIMES_30)
    message = "p must be finite and > 0, got %r" % p
    for estimate in (moment_curve, estimate_moment_rate, estimate_as_rate,
                     estimate_time_average, estimate_polynomial_rate):
        with pytest.raises(ValueError) as err:
            estimate(batch, p)
        assert str(err.value) == message, estimate.__name__
    with pytest.raises(ValueError, match=r"estimate\.power must be finite "
                       "and > 0"):
        require_power(p, "estimate.power")
    # the smallest positive power is one
    require_power(5e-324)
