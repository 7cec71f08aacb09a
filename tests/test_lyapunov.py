"""Lyapunov families, the operator LV, and the martingale residual test."""
from __future__ import annotations

import bisect
import dataclasses
import types

import numpy as np
import pytest

from hpsfde import lyapunov as lyapunov_mod
from hpsfde import paths as paths_mod
from hpsfde.errors import DimensionMismatch, InsufficientPaths
from hpsfde.integrator import IntegratorConfig, run_batch
from hpsfde.lyapunov import (LVBreakdown, LyapunovFamily, PolynomialV,
                             ResidualStatistic, _LVAlong, eval_LV,
                             lv_profile, martingale_residual,
                             sandwich_report)
from hpsfde.markov import make_generator
from hpsfde.models import ModelSpec, PolynomialTerm
from hpsfde.paths import ConstantSegment, DensePath, PathStore
from hpsfde.presets import PRESET_NAMES, preset, preset_lyapunov

SINGLE = make_generator([[0.0]])


def gbm_model(mu=0.07, sigma=0.1, x0=1.0):
    return ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                     drift=((PolynomialTerm([(1, mu)]),),),
                     diffusion=((PolynomialTerm([(1, sigma)]),),),
                     initial_segment=x0)


def gbm_family():
    return LyapunovFamily(regimes=(PolynomialV([(2, 1.0)]),), u0_power=2,
                          u_powers=(2,))


def constant_path(c, times, regimes, theta_lower, t0):
    times = np.asarray(times, dtype=np.float64)
    values = np.full(len(times), float(c))
    return DensePath(times=times, values=values,
                     regimes=np.asarray(regimes, dtype=np.int64),
                     theta_lower=theta_lower, t0=t0)


class PathView:
    """The segment x(theta * t) of a kept path, read by its linear rule."""

    def __init__(self, path, t):
        self.path, self.t = path, t
        self.point = self(1.0)

    def __call__(self, theta):
        return paths_mod._interp(self.path.times, self.path.values,
                                 np.asarray(theta) * self.t)


# ---------------------------------------------------------------------------
# polynomial V
# ---------------------------------------------------------------------------

def test_polynomial_v_rejects_bad_input():
    with pytest.raises(ValueError):
        PolynomialV([(3, 1.0)])  # odd power
    with pytest.raises(ValueError):
        PolynomialV([(-2, 1.0)])
    with pytest.raises(ValueError):
        PolynomialV([(2.5, 1.0)])
    with pytest.raises(ValueError):
        PolynomialV([(2, -1.0)])
    with pytest.raises(ValueError):
        PolynomialV([(2, 0.0)])  # no positive coefficient
    with pytest.raises(ValueError):
        PolynomialV([])
    # an infinite coefficient passes the U_0 <= V check and makes every
    # residual NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="coeff must be finite"):
            PolynomialV([(2, 1.0), (4, bad)])


def test_polynomial_v_closed_form_derivatives():
    V = PolynomialV([(2, 2.0), (6, 0.5)])
    xs = np.array([-1.7, -0.3, 0.0, 0.4, 2.2])
    assert np.allclose(V.value(xs), 2 * xs ** 2 + 0.5 * xs ** 6)
    assert np.allclose(V.dx(xs), 4 * xs + 3 * xs ** 5)
    assert np.allclose(V.dxx(xs), 4 + 15 * xs ** 4)


def test_polynomial_v_derivatives_match_finite_differences():
    V = PolynomialV([(2, 1.0), (4, 0.3), (8, 0.05)])
    for x in (0.7, 1.9):
        h = 1e-6
        num_dx = (V.value(x + h) - V.value(x - h)) / (2 * h)
        assert num_dx == pytest.approx(V.dx(x), rel=1e-8)
        h = 1e-4
        num_dxx = (V.value(x + h) - 2 * V.value(x) + V.value(x - h)) / h ** 2
        assert num_dxx == pytest.approx(V.dxx(x), rel=1e-6)


# ---------------------------------------------------------------------------
# family construction and the comparison functions
# ---------------------------------------------------------------------------

def test_family_validates_comparison_powers():
    v = PolynomialV([(2, 1.0)])
    with pytest.raises(ValueError):
        LyapunovFamily(regimes=(), u0_power=2, u_powers=(2,))
    with pytest.raises(ValueError):
        LyapunovFamily(regimes=(v,), u0_power=3, u_powers=(2,))
    with pytest.raises(ValueError):
        LyapunovFamily(regimes=(v,), u0_power=0, u_powers=(2,))
    with pytest.raises(ValueError):
        LyapunovFamily(regimes=(v,), u0_power=2, u_powers=())
    with pytest.raises(ValueError):
        LyapunovFamily(regimes=(v,), u0_power=2, u_powers=(2, 5))


def test_family_enforces_lower_comparison():
    with pytest.raises(ValueError, match="U_0 <= V"):
        LyapunovFamily(regimes=(PolynomialV([(2, 0.5)]),), u0_power=2,
                       u_powers=(2,))


@pytest.mark.parametrize("coeffs", [[(0, 1e5)], [(0, 1e5), (4, 0.0)]])
def test_family_rejects_v_below_u0_beyond_the_grid(coeffs):
    # 1e5 >= x**2 on the whole grid (x <= 100), but not for |x| > 316
    with pytest.raises(ValueError, match="regime 2's highest power with a "
                       "positive coefficient is 0, below u0_power 2"):
        LyapunovFamily(regimes=(PolynomialV([(2, 1.0)]), PolynomialV(coeffs)),
                       u0_power=2, u_powers=(2,))


def test_family_comparison_helpers():
    fam = preset_lyapunov("poly_stable")
    assert fam.u0_power == 4 and fam.u_powers == (4, 10)
    # regime 2's V is 2 x^4 + 3 x^10
    assert fam.value(0.5, 2) == pytest.approx(2 * 0.5 ** 4 + 3 * 0.5 ** 10)
    assert fam.dx(0.5, 2) == pytest.approx(8 * 0.5 ** 3 + 30 * 0.5 ** 9)
    assert fam.dxx(0.5, 2) == pytest.approx(24 * 0.5 ** 2 + 270 * 0.5 ** 8)


def test_sandwich_report_locates_worst_gap():
    rep = sandwich_report(preset_lyapunov("exp_stable"))
    assert rep.lower_ok
    # regime 2's V = 0.5 x^2 falls short of U_0 = x^2 by the most at the
    # largest grid point, x = 100
    with pytest.raises(ValueError,
                       match=r"worst gap 5000 at x=100, regime 2\)"):
        LyapunovFamily(regimes=(PolynomialV([(2, 1.0)]),
                                PolynomialV([(2, 0.5)])),
                       u0_power=2, u_powers=(2,))


def test_preset_families_satisfy_lower_comparison():
    for name in PRESET_NAMES:
        fam = preset_lyapunov(name)
        rep = sandwich_report(fam)
        assert rep.lower_ok


# ---------------------------------------------------------------------------
# LV evaluation
# ---------------------------------------------------------------------------

def test_lv_breakdown_checks_part_sum():
    LVBreakdown(value=1.0, drift_part=0.5, diffusion_part=0.25,
                coupling_part=0.25)
    with pytest.raises(ValueError):
        LVBreakdown(value=1.0, drift_part=0.55, diffusion_part=0.25,
                    coupling_part=0.25)


def test_lv_gbm_closed_form():
    # dx = mu x dt + sigma x dB with V = x^2 has
    # LV = (2 mu + sigma^2) x^2 = 0.15 x^2
    m = gbm_model()
    fam = gbm_family()
    for x in (0.3, 1.0, 2.5):
        got = eval_LV(fam, m, ConstantSegment(x, 0.5), 2.0, 1)
        assert got.value == pytest.approx(0.15 * x * x, rel=1e-12)
        assert got.drift_part == pytest.approx(0.14 * x * x, rel=1e-12)
        assert got.diffusion_part == pytest.approx(0.01 * x * x, rel=1e-12)
        assert got.coupling_part == 0.0


def test_lv_switch_stabilized_regime2_hand_value():
    # phi == 1 in regime 2: f = 0.04 + 0.04 = 0.08, g = 0.1,
    # V_2 = 2x^2 + 3x^8 so V_2' = 28 and V_2'' = 172 at x = 1,
    # coupling 3 V_1(1) - 3 V_2(1) = 3 - 15
    m = preset("switch_stabilized")
    fam = preset_lyapunov("switch_stabilized")
    got = eval_LV(fam, m, ConstantSegment(1.0, 0.7), 2.0, 2)
    assert got.drift_part == pytest.approx(28 * 0.08)
    assert got.diffusion_part == pytest.approx(0.5 * 0.01 * 172)
    assert got.coupling_part == pytest.approx(-12.0)
    assert got.value == pytest.approx(-8.90)


def test_lv_poly_stable_constant_segments():
    # kernel-free model, so LV of a constant segment is a polynomial in
    # the constant: regime 2 gives -3.32 c^4 - 8.55 c^10 and regime 1
    # gives -21 c^4 - 24 c^6 - 20.76 c^10
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    for c in (0.4, 0.9, 1.3):
        got2 = eval_LV(fam, m, ConstantSegment(c, 0.75), 5.0, 2)
        assert got2.value == pytest.approx(-3.32 * c ** 4 - 8.55 * c ** 10,
                                           rel=1e-12)
        got1 = eval_LV(fam, m, ConstantSegment(c, 0.75), 5.0, 1)
        assert got1.value == pytest.approx(
            -21.0 * c ** 4 - 24.0 * c ** 6 - 20.76 * c ** 10, rel=1e-12)


def test_lv_negative_on_unit_segment_for_all_presets():
    for name in PRESET_NAMES:
        m = preset(name)
        fam = preset_lyapunov(name)
        for i in (1, 2):
            got = eval_LV(fam, m, ConstantSegment(1.0, m.theta_lower),
                          m.t0, i)
            assert got.value < 0.0, (name, i)


def test_lv_regime_count_mismatch():
    m = preset("exp_stable")
    with pytest.raises(DimensionMismatch):
        eval_LV(gbm_family(), m, ConstantSegment(1.0, 0.5), 2.0, 1)


# ---------------------------------------------------------------------------
# LV along a path
# ---------------------------------------------------------------------------

def one_row_profile(fam, m, path, t_end=None):
    """LV along a hand-built path by the residual's pass.

    The path is the one row of a store, with its nodes before t0 as the
    store's initial nodes and no switch nodes; t_end defaults to the
    path's last node.
    """
    a = int(np.searchsorted(path.times, path.t0))
    none = np.zeros(0, dtype=np.int64)
    store = PathStore(
        theta_lower=path.theta_lower, t0=path.t0,
        init_times=path.times[:a], init_values=path.values[:a],
        times=path.times[a:], values=path.values[None, a:],
        regimes=path.regimes[None, a:], exploded_at=np.full(1, np.nan),
        node_row=none, node_time=none * 1.0, node_value=none * 1.0,
        node_regime=none)
    integrals, _, times, values, _ = _LVAlong(
        fam, m, store, np.zeros(1, dtype=np.int64),
        path.t_end if t_end is None else t_end).block(0, 1)
    return times, values, float(integrals[0])


def test_lv_profile_constant_path_single_regime():
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    c = 0.8
    path = constant_path(c, [0.75, 1.0, 1.5, 2.0, 3.0], [2, 2, 2, 2, 2],
                         0.75, 1.0)
    times, values, integral = one_row_profile(fam, m, path)
    expect = -3.32 * c ** 4 - 8.55 * c ** 10
    assert np.array_equal(times, [1.0, 1.5, 2.0, 3.0])
    assert np.allclose(values, expect, rtol=1e-12)
    assert integral == pytest.approx(2.0 * expect, rel=1e-12)


def test_lv_profile_uses_left_node_regime_per_interval():
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    c = 0.6
    path = constant_path(c, [0.75, 1.0, 2.0, 3.0], [1, 1, 2, 2], 0.75, 1.0)
    times, values, integral = one_row_profile(fam, m, path)
    lv1 = -21.0 * c ** 4 - 24.0 * c ** 6 - 20.76 * c ** 10
    lv2 = -3.32 * c ** 4 - 8.55 * c ** 10
    assert values[0] == pytest.approx(lv1, rel=1e-12)
    assert values[1] == pytest.approx(lv2, rel=1e-12)
    assert integral == pytest.approx(lv1 * 1.0 + lv2 * 1.0, rel=1e-12)


def test_lv_profile_truncates_at_t_end():
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    c = 0.8
    path = constant_path(c, [0.75, 1.0, 1.5, 2.0, 3.0], [2, 2, 2, 2, 2],
                         0.75, 1.0)
    times, _, integral = one_row_profile(fam, m, path, t_end=2.0)
    expect = -3.32 * c ** 4 - 8.55 * c ** 10
    assert times[-1] == 2.0
    assert integral == pytest.approx(1.0 * expect, rel=1e-12)


def test_lv_profile_closes_off_grid_t_end():
    # t_end = 1.75 lies inside the interval [1.5, 2.0]; the integral runs
    # up to t_end itself, not only to the last node before it
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    c = 0.8
    path = constant_path(c, [0.75, 1.0, 1.5, 2.0, 3.0], [2, 2, 2, 2, 2],
                         0.75, 1.0)
    times, values, integral = one_row_profile(fam, m, path, t_end=1.75)
    expect = -3.32 * c ** 4 - 8.55 * c ** 10
    assert np.array_equal(times, [1.0, 1.5, 1.75])
    assert np.allclose(values, expect, rtol=1e-12)
    assert integral == pytest.approx(0.75 * expect, rel=1e-12)
    # within the grid tolerance of a node nothing is added
    times, _, near = one_row_profile(fam, m, path, t_end=2.0 + 1e-12)
    assert times[-1] == 2.0
    assert near == one_row_profile(fam, m, path, t_end=2.0)[2]
    batch = run_batch(m, IntegratorConfig(dt=0.25, T=3.0), n_paths=1, i0=2,
                      root_seed=1)
    with pytest.raises(ValueError, match="before t0"):
        lv_profile(fam, batch, 0, t_end=0.9)


def test_lv_profile_reads_a_kept_row():
    # row p of a batch: its own exploded_at and index rules, and t_end
    # by the residual's rule
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                  drift=((PolynomialTerm([(3, 0.2)]),),),
                  diffusion=((PolynomialTerm([(1, 0.8)]),),),
                  initial_segment=1.0)
    cfg = IntegratorConfig(dt=0.005, T=2.0, blowup_threshold=1e6)
    batch = run_batch(m, cfg, n_paths=40, i0=1, root_seed=3)
    fam = gbm_family()
    boom = int(np.flatnonzero(batch.exploded_at < 2.0)[0])
    at = float(batch.exploded_at[boom])
    with pytest.raises(ValueError, match="path %d exploded at t=%r, at or "
                       "before t_end=2.0" % (boom, at)):
        lv_profile(fam, batch, boom)
    with pytest.raises(ValueError, match="exploded"):
        lv_profile(fam, batch, boom, t_end=at)
    # before its explosion, the row reads as in the residual's pass
    t_end = 0.5 * (1.0 + at)
    kept = np.flatnonzero(~(batch.exploded_at <= t_end))
    along = _LVAlong(fam, m, batch.paths, kept, t_end)
    assert along.blocks == [(0, len(kept))]
    integrals, _, times, values, offsets = along.block(0, len(kept))
    k = int(np.searchsorted(kept, boom))
    got = lv_profile(fam, batch, boom, t_end)
    assert got[0][-1] == t_end
    assert got[0].tobytes() == times[offsets[k]:offsets[k + 1]].tobytes()
    assert got[1].tobytes() == values[offsets[k]:offsets[k + 1]].tobytes()
    assert got[2] == integrals[k]
    calm = int(np.flatnonzero(np.isnan(batch.exploded_at))[-1])
    for got, want in zip(lv_profile(fam, batch, calm - 40),
                         lv_profile(fam, batch, np.int64(calm), 2.0)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    with pytest.raises(IndexError, match="path 40 of a store of 40 paths"):
        lv_profile(fam, batch, 40)
    with pytest.raises(TypeError):
        lv_profile(fam, batch, 1.0)
    with pytest.raises(ValueError, match="past T"):
        lv_profile(fam, batch, calm, t_end=2.5)
    lean = run_batch(m, cfg, n_paths=4, i0=1, root_seed=3, keep_paths=False)
    with pytest.raises(ValueError, match="keep_paths"):
        lv_profile(fam, lean, 0)


def _piece_value(times, values, u, last):
    """x(u) on the piece [times[i], times[i + 1]], where i indexes the
    last time at or before u, capped at ``last``."""
    i = min(bisect.bisect_right(times, u) - 1, last)
    w = (u - times[i]) / (times[i + 1] - times[i])
    return values[i] * (1.0 - w) + values[i + 1] * w


class StepView:
    """The segment x(theta t) at a node of a kept path, read by the
    integrator's rule.

    The node at t = ``step_t[-1]`` lies in the step that starts at
    t_k = ``grid_t[k]``; a grid node starts its own step.  A time
    theta t at or before t_k (within 1e-15) reads the initial and grid
    nodes alone, the piece capped at the step that ends at t_k; a later
    one reads the path's nodes in the step up to the node, ``step_t``
    and ``step_x``.  Thetas are clipped to [theta_lower, 1].
    """

    def __init__(self, grid_t, grid_x, k, step_t, step_x, theta_lower):
        self.grid_t, self.grid_x, self.k = grid_t, grid_x, k
        self.step_t, self.step_x = step_t, step_x
        self.theta_lower = theta_lower
        self.point = step_x[-1]

    def __call__(self, thetas):
        t_k = self.grid_t[self.k]
        lookups = np.clip(thetas, self.theta_lower, 1.0) * self.step_t[-1]
        return np.array([
            _piece_value(self.grid_t, self.grid_x, u, self.k - 1)
            if u <= t_k + 1e-15 else
            _piece_value(self.step_t, self.step_x, u, len(self.step_t) - 2)
            for u in lookups.tolist()])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lv_along_kept_paths_reads_by_the_integrators_rule(name):
    # LV at every node of the residual's pass is eval_LV on a segment
    # read as the Euler step reads it; only the step's own nodes after
    # t_k may be switch nodes, so a grid node never reads through one.
    # lv_profile of a row is the pass on that row alone, so it has the
    # same bits.
    m, fam = preset(name), preset_lyapunov(name)
    batch = run_batch(m, IntegratorConfig(dt=0.01, T=3.0), n_paths=200,
                      i0=1, root_seed=1)
    store = batch.paths
    # the first and last rows, and the first row with a switch node
    profiled = {0, len(store) - 1, int(store.node_row[0])}
    thetas = np.unique(np.concatenate([term.measure.thetas
                                       for term in m._plan.integrals]))
    history = np.concatenate((store.init_times, store.times))
    expect, differ = {}, False
    for t_end in (3.0, 2.5053):
        along = _LVAlong(fam, m, store, np.arange(len(store)), t_end)
        for lo, hi in along.blocks:
            integrals, _, times, values, offsets = along.block(lo, hi)
            for p in range(lo, hi):
                path = store[p]
                on_grid = np.isin(path.times, history)
                grid_t = path.times[on_grid].tolist()
                grid_x = path.values[on_grid].tolist()
                node_t, node_x = path.times.tolist(), path.values.tolist()
                a, z = offsets[p - lo], offsets[p - lo + 1]
                for t in times[a:z].tolist():
                    if (p, t) in expect:
                        continue
                    i = bisect.bisect_left(node_t, t)
                    t_k = store.times[np.searchsorted(store.times, t,
                                                      side="right") - 1]
                    first = bisect.bisect_left(node_t, t_k)
                    if i < len(node_t) and node_t[i] == t:
                        step_t, step_x = node_t[first:i + 1], \
                            node_x[first:i + 1]
                        r = path.regimes[i]
                    else:
                        # the closing node carries the regime before it
                        step_t = node_t[first:i] + [t]
                        step_x = node_x[first:i] + [along.x_end[p]]
                        r = path.regimes[i - 1]
                    view = StepView(grid_t, grid_x,
                                    bisect.bisect_left(grid_t, t_k), step_t,
                                    step_x, store.theta_lower)
                    expect[p, t] = eval_LV(fam, m, view, t, r).value
                    differ = differ or not np.array_equal(
                        view(thetas), PathView(path, t)(thetas))
                got = values[a:z]
                want = np.array([expect[p, t] for t in times[a:z].tolist()])
                assert got.tobytes() == want.tobytes(), (name, t_end, p)
                if p in profiled:
                    t_p, v_p, integral = lv_profile(fam, batch, p, t_end)
                    assert t_p.tobytes() == times[a:z].tobytes()
                    assert t_p[-1] == t_end
                    assert v_p.tobytes() == want.tobytes(), (name, t_end, p)
                    assert integral == integrals[p - lo]
    # reading through every node would differ at some of these nodes
    assert differ


# ---------------------------------------------------------------------------
# martingale residual
# ---------------------------------------------------------------------------

def test_residual_requires_kept_paths():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0),
                      n_paths=4, i0=1, root_seed=1, keep_paths=False)
    with pytest.raises(ValueError, match="keep_paths"):
        martingale_residual(gbm_family(), batch, 2.0)


def test_residual_needs_hundred_paths():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0),
                      n_paths=40, i0=1, root_seed=1, keep_paths=True)
    with pytest.raises(InsufficientPaths):
        martingale_residual(gbm_family(), batch, 2.0)


def test_residual_gbm_near_zero():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0),
                      n_paths=200, i0=1, root_seed=7, keep_paths=True)
    stat = martingale_residual(gbm_family(), batch, 2.0)
    assert stat.n_paths_used == 200
    assert stat.n_excluded == 0
    assert stat.stderr > 0.0
    assert abs(stat.z) < 3.0
    # E integral LV ds = e^{0.15} - 1 for V = x^2
    assert stat.mean_integral == pytest.approx(np.expm1(0.15), rel=0.2)
    allowance = 5 * 0.01 * abs(stat.mean_integral)
    assert stat.z_with_allowance(allowance) <= abs(stat.z)


def test_residual_counts_exploded_paths():
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                  drift=((PolynomialTerm([(3, 0.2)]),),),
                  diffusion=((PolynomialTerm([(1, 0.8)]),),),
                  initial_segment=1.0)
    cfg = IntegratorConfig(dt=0.005, T=2.0, blowup_threshold=1e6)
    batch = run_batch(m, cfg, n_paths=160, i0=1, root_seed=3, keep_paths=True)
    assert 0 < batch.n_exploded < 60
    stat = martingale_residual(gbm_family(), batch, 2.0)
    assert stat.n_excluded == batch.n_exploded
    assert stat.n_paths_used + stat.n_excluded == 160


def rebuilt_residual(fam, batch, t_end):
    """The residual statistic from each kept row's lv_profile, with the
    states at t0 and t_end read off the row's DensePath."""
    deltas, integrals = [], []
    for p, path in enumerate(batch.paths):
        if path.exploded_at is not None and path.exploded_at <= t_end:
            continue
        _, _, integral = lv_profile(fam, batch, p, t_end)
        x_end = float(paths_mod._interp(path.times, path.values, t_end))
        idx = int(np.searchsorted(path.times, t_end, side="right")) - 1
        r_end = int(path.regimes[min(idx, len(path.regimes) - 1)])
        x0 = float(paths_mod._interp(path.times, path.values, path.t0))
        i0 = int(path.regimes[np.searchsorted(path.times, path.t0)])
        deltas.append(float(fam.value(x_end, r_end))
                      - float(fam.value(x0, i0)) - integral)
        integrals.append(integral)
    d = np.asarray(deltas)
    stderr = float(d.std(ddof=1) / np.sqrt(len(d)))
    return ResidualStatistic(
        residual=float(d.mean()), stderr=stderr, z=float(d.mean()) / stderr,
        mean_integral=float(np.mean(integrals)), t_end=t_end,
        n_paths_used=len(d), n_excluded=len(batch.paths) - len(d))


def test_residual_chunks_match_per_path_profiles(monkeypatch):
    # a two-regime version of the exploding model above: some paths
    # switch, some explode, and the kept paths fill several row blocks
    # of at most 1 << 14 nodes, the last one partly
    monkeypatch.setattr(lyapunov_mod, "_CHUNK_NODES", 1 << 14)
    gen = make_generator([[-1.0, 1.0], [1.0, -1.0]])
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=gen,
                  drift=((PolynomialTerm([(3, 0.2)]),),
                         (PolynomialTerm([(3, 0.3)]),)),
                  diffusion=((PolynomialTerm([(1, 0.8)]),),
                             (PolynomialTerm([(1, 0.8)]),)),
                  initial_segment=1.0)
    fam = LyapunovFamily(regimes=(PolynomialV([(2, 1.0)]),
                                  PolynomialV([(2, 2.0)])),
                         u0_power=2, u_powers=(2,))
    cfg = IntegratorConfig(dt=0.005, T=2.0, blowup_threshold=1e6)
    batch = run_batch(m, cfg, n_paths=160, i0=1, root_seed=3,
                      keep_paths=True)
    kept = [p for p in batch.paths
            if p.exploded_at is None or p.exploded_at > 2.0]
    rows = np.flatnonzero(~(batch.exploded_at <= 2.0))
    sizes = [hi - lo for lo, hi in _LVAlong(fam, m, batch.paths, rows,
                                             2.0).blocks]
    assert batch.n_exploded > 0 and batch.n_switches.sum() > 0
    assert len(sizes) >= 2 and sizes[-1] < sizes[0]

    # a kept path's switch node, so one t_end below lies within the grid
    # tolerance of a node in another regime
    switch = next(p.times[k] for p in kept
                  for k in np.flatnonzero(np.diff(p.regimes)) + 1
                  if p.times[k] > 1.5)
    # on the last node, within the grid tolerance of it or of the switch
    # node, and between nodes
    for t_end in (2.0, 2.0 - 1e-12, switch - 1e-12, 1.7531):
        stat = martingale_residual(fam, batch, t_end)
        assert dataclasses.replace(stat, parts=None) == \
            rebuilt_residual(fam, batch, t_end)
        assert stat.parts.value == pytest.approx(stat.mean_integral,
                                                 rel=1e-12)

    # a pantograph model with switches, whose delayed lookups read
    # through switch nodes; at T and between nodes
    batch = run_batch(preset("switch_stabilized"),
                      IntegratorConfig(dt=0.01, T=3.0), n_paths=150, i0=1,
                      root_seed=5)
    fam = preset_lyapunov("switch_stabilized")
    assert batch.n_switches.sum() > 0
    for t_end in (3.0, 2.5053):
        stat = martingale_residual(fam, batch, t_end)
        assert dataclasses.replace(stat, parts=None) == \
            rebuilt_residual(fam, batch, t_end)


def test_residual_does_not_depend_on_the_block_size_with_delays(monkeypatch):
    # switch_stabilized reads delayed states in both passes of a block,
    # over the grid rows and over the switch and closing entries.  Some
    # rows never switch, so blocks of one row at T hold no entry; 2.5053
    # closes every row between two of its nodes.
    m = preset("switch_stabilized")
    batch = run_batch(m, IntegratorConfig(dt=0.01, T=3.0), n_paths=150,
                      i0=1, root_seed=5, keep_paths=True)
    assert (batch.n_switches == 0).any() and batch.n_switches.sum() > 0
    default = lyapunov_mod._CHUNK_NODES
    for t_end in (3.0, 2.5053):
        stats = []
        for chunk in (1, 1 << 9, default):
            monkeypatch.setattr(lyapunov_mod, "_CHUNK_NODES", chunk)
            stats.append(martingale_residual(preset_lyapunov(
                "switch_stabilized"), batch, t_end))
        for field in ("residual", "stderr", "z", "mean_integral"):
            assert len({np.float64(getattr(s, field)).tobytes()
                        for s in stats}) == 1, field


@pytest.mark.parametrize("t_end, why", [
    (float("nan"), "not a number"), (1.0, "t0 itself"),
    (0.5, "before t0"), (2.5, "past T"), (2.0 + 1e-8, "past T")])
def test_residual_rejects_t_end_outside_horizon(t_end, why):
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0),
                      n_paths=100, i0=1, root_seed=1, keep_paths=True)
    with pytest.raises(ValueError) as err:
        martingale_residual(gbm_family(), batch, t_end)
    assert str(err.value) == ("t_end must lie in (t0, T] = (1, 2], got %r, "
                              "which is %s" % (t_end, why))
    # T itself, and a time within the grid tolerance past it, are inside
    at_T = martingale_residual(gbm_family(), batch, 2.0)
    near = martingale_residual(gbm_family(), batch, 2.0 + 1e-10)
    assert dataclasses.replace(near, t_end=2.0) == at_T


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_residual_regime_parts_sum_to_parts(name):
    m = preset(name)
    batch = run_batch(m, IntegratorConfig(dt=0.01, T=2.0), n_paths=150,
                      i0=1, root_seed=4, keep_paths=True)
    assert batch.n_switches.sum() > 0
    stat = martingale_residual(preset_lyapunov(name), batch, 1.8765)
    assert len(stat.regime_parts) == m.n_regimes
    for field in ("drift_part", "diffusion_part", "coupling_part", "value"):
        total = getattr(stat.parts, field)
        assert sum(getattr(part, field) for part in stat.regime_parts) == \
            pytest.approx(total, rel=1e-12)
    # the chain starts in regime 1 and leaves it, so both regimes count
    assert all(part.value != 0.0 for part in stat.regime_parts)


def test_residual_builds_no_dense_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a DensePath was built")

    batch = run_batch(preset("switch_stabilized"),
                      IntegratorConfig(dt=0.01, T=2.0), n_paths=120, i0=1,
                      root_seed=2, keep_paths=True)
    assert batch.n_switches.sum() > 0
    monkeypatch.setattr(paths_mod, "DensePath", refuse)
    stat = martingale_residual(preset_lyapunov("switch_stabilized"), batch,
                               1.95)
    assert stat.n_paths_used == 120
    with pytest.raises(AssertionError, match="DensePath"):
        batch.paths[0]


def test_residual_parts_match_pointwise_breakdown():
    # 100 copies of a constant path: each part's mean integral is the
    # pointwise part times the length of [t0, t_end]
    m = preset("poly_stable")
    fam = preset_lyapunov("poly_stable")
    c = 0.8
    path = constant_path(c, [0.75, 1.0, 1.5, 2.0, 3.0], [2, 2, 2, 2, 2],
                         0.75, 1.0)
    store = PathStore(
        theta_lower=0.75, t0=1.0, init_times=path.times[:1],
        init_values=path.values[:1], times=path.times[1:],
        values=np.tile(path.values[1:], (100, 1)),
        regimes=np.tile(path.regimes[1:], (100, 1)),
        exploded_at=np.full(100, np.nan), node_row=np.zeros(0, int),
        node_time=np.zeros(0), node_value=np.zeros(0),
        node_regime=np.zeros(0, int))
    assert [p.times.tolist() for p in store] == [path.times.tolist()] * 100
    batch = types.SimpleNamespace(paths=store, model=m)
    stat = martingale_residual(fam, batch, 1.75)
    point = eval_LV(fam, m, ConstantSegment(c, 0.75), 1.0, 2)
    for name in ("drift_part", "diffusion_part", "coupling_part"):
        assert getattr(stat.parts, name) == pytest.approx(
            0.75 * getattr(point, name), rel=1e-12, abs=1e-15)
    assert stat.mean_integral == pytest.approx(0.75 * point.value, rel=1e-12)


def test_identical_paths_give_an_infinite_z():
    # no noise and no switching, so all 100 paths are one Euler path and
    # the residual has no spread; on it x is linear in t and LV cubic,
    # which the trapezoid misses, so the residual is not zero.  Every
    # number is a short dyadic, so the mean is exact too.
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                  drift=((PolynomialTerm([(0, 0.25)]),),), diffusion=((),),
                  initial_segment=1.0)
    fam = LyapunovFamily(regimes=(PolynomialV([(2, 1.0), (4, 1.0)]),),
                         u0_power=2, u_powers=(2,))
    batch = run_batch(m, IntegratorConfig(dt=0.25, T=2.0), n_paths=100,
                      i0=1, root_seed=0)
    stat = martingale_residual(fam, batch, 2.0)
    assert stat.stderr == 0.0
    assert stat.residual != 0.0
    assert stat.z == np.inf


def test_z_with_allowance():
    stat = ResidualStatistic(residual=1.0, stderr=0.5, z=2.0,
                             mean_integral=1.0, t_end=2.0, n_paths_used=100,
                             n_excluded=0)
    assert stat.z_with_allowance(0.0) == pytest.approx(2.0)
    assert stat.z_with_allowance(0.25) == pytest.approx(1.5)
    assert stat.z_with_allowance(2.0) == 0.0
    degenerate = ResidualStatistic(residual=0.5, stderr=0.0, z=np.inf,
                                   mean_integral=1.0, t_end=2.0,
                                   n_paths_used=100, n_excluded=0)
    assert degenerate.z_with_allowance(0.6) == 0.0
    assert degenerate.z_with_allowance(0.4) == np.inf
