"""Euler integration: grids, determinism, switching, and convergence."""
from __future__ import annotations

import numpy as np
import pytest

from hpsfde.errors import NonFiniteState, PathExploded
from hpsfde.integrator import (IntegratorConfig, SimulationBatch,
                               TabulatedWiener, initial_grid, integrate_path,
                               path_streams, run_batch, uniform_grid)
from hpsfde.markov import make_generator
from hpsfde.models import ModelSpec, PolynomialTerm
from hpsfde.paths import eval as path_eval
from hpsfde.presets import preset

SINGLE = make_generator([[0.0]])


def still_model(x0=0.7):
    return ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                     drift=((),), diffusion=((),), initial_segment=x0)


def gbm_model(mu=0.07, sigma=0.1, x0=1.0):
    return ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                     drift=((PolynomialTerm([(1, mu)]),),),
                     diffusion=((PolynomialTerm([(1, sigma)]),),),
                     initial_segment=x0)


# ---------------------------------------------------------------------------
# grids and config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, T=2.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, T=2.0, blowup_threshold=0.0)


def test_uniform_grid_exact_division():
    g = uniform_grid(1.0, 2.0, 0.1)
    assert len(g) == 11
    assert g[0] == 1.0 and g[-1] == 2.0
    assert np.allclose(np.diff(g), 0.1)


def test_uniform_grid_snaps_near_divisors():
    g = uniform_grid(1.0, 2.0, 0.1 * (1.0 + 1e-12))
    assert len(g) == 11


def test_uniform_grid_rounds_up_otherwise():
    g = uniform_grid(1.0, 2.0, 0.3)
    assert len(g) == 5  # four steps of 0.25
    assert np.allclose(np.diff(g), 0.25)
    with pytest.raises(ValueError):
        uniform_grid(2.0, 2.0, 0.1)


def test_initial_grid_covers_delay_interval():
    m = still_model()
    g = initial_grid(m, 0.1)
    assert g[0] == pytest.approx(0.5)
    assert g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(g) > 0)
    assert np.max(np.diff(g)) <= 0.1 + 1e-12


def test_initial_grid_merges_table_knots():
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                  drift=((),), diffusion=((),),
                  initial_segment=([0.5, 0.62, 1.0], [0.2, 0.8, 0.4]))
    g = initial_grid(m, 0.1)
    assert 0.62 in g
    vals = m.initial_value(g)
    assert vals[list(g).index(0.62)] == pytest.approx(0.8)


def test_path_streams_are_distinct_and_stable():
    a0 = path_streams(1, 0)
    a1 = path_streams(1, 1)
    b0 = path_streams(1, 0)
    assert a0[0].entropy == b0[0].entropy
    assert a0[0].spawn_key == b0[0].spawn_key
    assert a0[1].spawn_key != a1[1].spawn_key or True  # distinct paths
    r0 = np.random.Generator(np.random.PCG64(path_streams(1, 0)[1]))
    r1 = np.random.Generator(np.random.PCG64(path_streams(1, 1)[1]))
    assert r0.standard_normal() != r1.standard_normal()


# ---------------------------------------------------------------------------
# exactness on degenerate models
# ---------------------------------------------------------------------------

def test_zero_coefficients_keep_path_constant():
    batch = run_batch(still_model(0.7), IntegratorConfig(dt=0.25, T=2.0),
                      n_paths=3, i0=1, root_seed=0)
    assert np.all(batch.uniform_values == 0.7)
    for p in batch.paths:
        assert np.all(p.values == 0.7)
        assert path_eval(p, 1.37) == 0.7


def test_zero_initial_state_is_absorbing_under_switching():
    # every preset coefficient vanishes at the origin, so the zero
    # solution survives regime switches exactly
    m = preset("switch_stabilized", initial=0.0)
    batch = run_batch(m, IntegratorConfig(dt=0.1, T=3.0), n_paths=8, i0=1,
                      root_seed=2)
    assert np.all(batch.uniform_values == 0.0)
    assert batch.n_switches.sum() > 0


def test_piecewise_constant_drift_integrates_occupation_exactly():
    # dx = +1 dt in regime 1 and -1 dt in regime 2 with no noise, and
    # switch times inserted into the grid, so the Euler solution equals
    # the signed occupation time with no discretization error
    m = ModelSpec(theta_lower=0.5, t0=1.0,
                  generator=make_generator([[-1.0, 1.0], [2.0, -2.0]]),
                  drift=((PolynomialTerm([(0, 1.0)]),),
                         (PolynomialTerm([(0, -1.0)]),)),
                  diffusion=((), ()),
                  initial_segment=0.0)
    batch = run_batch(m, IntegratorConfig(dt=0.05, T=5.0), n_paths=20, i0=1,
                      root_seed=5)
    assert batch.n_switches.sum() > 0
    for p in batch.paths:
        keep = p.times >= p.t0
        times = p.times[keep]
        regs = p.regimes[keep]
        signs = np.where(regs[:-1] == 1, 1.0, -1.0)
        occupation = float((signs * np.diff(times)).sum())
        drifted = float(p.values[-1] - path_eval(p, p.t0))
        assert drifted == pytest.approx(occupation, abs=1e-10)


def test_switch_nodes_appear_in_kept_paths():
    m = preset("exp_stable")
    batch = run_batch(m, IntegratorConfig(dt=0.1, T=3.0), n_paths=10, i0=1,
                      root_seed=4)
    uniform = set(np.round(batch.uniform_times, 12))
    for p, path in enumerate(batch.paths):
        changes = int((np.diff(path.regimes) != 0).sum())
        assert changes == batch.n_switches[p]
        extra = [t for t in path.times[path.times > 1.0]
                 if np.round(t, 12) not in uniform]
        assert len(extra) == batch.n_switches[p]


def test_uniform_values_match_kept_paths():
    m = preset("exp_stable")
    batch = run_batch(m, IntegratorConfig(dt=0.1, T=2.0), n_paths=6, i0=1,
                      root_seed=9)
    for p, path in enumerate(batch.paths):
        got = path_eval(path, batch.uniform_times)
        assert np.array_equal(got, batch.uniform_values[p])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_rerun_is_bit_identical():
    m = preset("exp_stable")
    cfg = IntegratorConfig(dt=0.05, T=2.0)
    a = run_batch(m, cfg, n_paths=12, i0=1, root_seed=7, keep_paths=False)
    b = run_batch(m, cfg, n_paths=12, i0=1, root_seed=7, keep_paths=False)
    assert np.array_equal(a.uniform_values, b.uniform_values, equal_nan=True)
    assert np.array_equal(a.regimes_uniform, b.regimes_uniform)


def test_workers_and_block_size_do_not_change_results():
    m = preset("switch_stabilized")
    cfg = IntegratorConfig(dt=0.05, T=2.0)
    base = run_batch(m, cfg, n_paths=23, i0=1, root_seed=3, keep_paths=False)
    for workers, block in ((1, 7), (3, 7), (4, 5), (2, 23)):
        other = run_batch(m, cfg, n_paths=23, i0=1, root_seed=3,
                          workers=workers, block_size=block,
                          keep_paths=False)
        assert np.array_equal(base.uniform_values, other.uniform_values,
                              equal_nan=True)
        assert np.array_equal(base.regimes_uniform, other.regimes_uniform)


def test_paths_depend_only_on_their_index():
    m = preset("exp_stable")
    cfg = IntegratorConfig(dt=0.1, T=2.0)
    small = run_batch(m, cfg, n_paths=5, i0=1, root_seed=11, keep_paths=False)
    large = run_batch(m, cfg, n_paths=9, i0=1, root_seed=11, keep_paths=False)
    assert np.array_equal(small.uniform_values, large.uniform_values[:5],
                          equal_nan=True)


def test_single_path_helper_matches_batch():
    m = preset("exp_stable")
    cfg = IntegratorConfig(dt=0.1, T=2.0)
    path = integrate_path(m, cfg, i0=1, seed=13)
    batch = run_batch(m, cfg, n_paths=1, i0=1, root_seed=13)
    assert np.array_equal(path.times, batch.paths[0].times)
    assert np.array_equal(path.values, batch.paths[0].values)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_gbm_second_moment():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0),
                      n_paths=2000, i0=1, root_seed=17, keep_paths=False)
    m2 = float((batch.uniform_values[:, -1] ** 2).mean())
    assert m2 == pytest.approx(np.exp(0.15), rel=0.02)


def test_gbm_strong_order_half():
    # drive three step sizes with one Brownian table and compare against
    # the closed-form solution at T; halving-by-decade error ratios
    # should straddle sqrt(10) ~ 3.16
    mu, sigma = 0.07, 0.1
    m = gbm_model(mu, sigma)
    wiener = TabulatedWiener.sample(1.0, 2.0, 1e-4, n_paths=100,
                                    root_seed=19)
    w_end = wiener.increment(1.0, 2.0)
    exact = np.exp((mu - 0.5 * sigma ** 2) * 1.0 + sigma * w_end)
    errors = []
    for dt in (1e-2, 1e-3, 1e-4):
        batch = run_batch(m, IntegratorConfig(dt=dt, T=2.0), n_paths=100,
                          i0=1, root_seed=19, keep_paths=False,
                          wiener=wiener)
        end = batch.uniform_values[:, -1]
        errors.append(float(np.sqrt(((end - exact) ** 2).mean())))
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert 2.2 <= ratio <= 4.5, errors


def test_wiener_table_rejects_switching_models():
    wiener = TabulatedWiener.sample(1.0, 2.0, 0.01, n_paths=5, root_seed=1)
    m = preset("exp_stable")
    with pytest.raises(ValueError, match="switching-free"):
        run_batch(m, IntegratorConfig(dt=0.01, T=2.0), n_paths=5, i0=1,
                  root_seed=1, wiener=wiener)


def test_wiener_table_must_cover_the_horizon():
    # past its last time the table would extrapolate one increment
    # forever, so a table on [1, 2] cannot drive a run to T=3
    wiener = TabulatedWiener.sample(1.0, 2.0, 0.01, n_paths=5, root_seed=1)
    with pytest.raises(ValueError, match="covers"):
        run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=3.0), n_paths=5,
                  i0=1, root_seed=1, keep_paths=False, wiener=wiener)


def test_wiener_table_needs_a_row_per_path():
    wiener = TabulatedWiener.sample(1.0, 2.0, 0.01, n_paths=3, root_seed=1)
    with pytest.raises(ValueError, match="3 rows for 5 paths"):
        run_batch(gbm_model(), IntegratorConfig(dt=0.01, T=2.0), n_paths=5,
                  i0=1, root_seed=1, keep_paths=False, wiener=wiener)


def test_tabulated_wiener_basics():
    with pytest.raises(ValueError):
        TabulatedWiener(np.array([0.0, 1.0]), np.zeros(3))
    w = TabulatedWiener.sample(1.0, 2.0, 0.1, n_paths=4, root_seed=23)
    assert w.values.shape == (4, 11)
    assert np.all(w.values[:, 0] == 0.0)
    inc = w.increment(float(w.times[2]), float(w.times[5]))
    assert np.allclose(inc, w.values[:, 5] - w.values[:, 2], atol=1e-15)
    again = TabulatedWiener.sample(1.0, 2.0, 0.1, n_paths=4, root_seed=23)
    assert np.array_equal(w.values, again.values)


# ---------------------------------------------------------------------------
# blow-up and validation
# ---------------------------------------------------------------------------

def test_cubic_blowup_is_recorded_not_raised():
    m = ModelSpec(theta_lower=0.5, t0=1.0, generator=SINGLE,
                  drift=((PolynomialTerm([(3, 1.0)]),),),
                  diffusion=((),), initial_segment=2.0)
    cfg = IntegratorConfig(dt=0.01, T=2.0, blowup_threshold=1e3)
    batch = run_batch(m, cfg, n_paths=2, i0=1, root_seed=0)
    assert batch.n_exploded == 2
    t_star = float(batch.exploded_at[0])
    assert 1.0 < t_star < 2.0
    path = batch.paths[0]
    assert path.exploded_at == t_star
    assert path.t_end == pytest.approx(t_star)
    assert abs(path.values[-1]) > 1e3
    with pytest.raises(PathExploded):
        path_eval(path, min(t_star + 0.1, 2.0))
    k = np.searchsorted(batch.uniform_times, t_star, side="right")
    assert np.all(np.isnan(batch.uniform_values[0, k:]))


def test_nonfinite_initial_data_is_rejected():
    with pytest.raises(NonFiniteState):
        run_batch(still_model(float("nan")),
                  IntegratorConfig(dt=0.1, T=2.0), n_paths=1, i0=1,
                  root_seed=0)


def test_run_batch_validation():
    m = gbm_model()
    cfg = IntegratorConfig(dt=0.1, T=2.0)
    with pytest.raises(ValueError):
        run_batch(m, cfg, n_paths=0, i0=1, root_seed=0)
    with pytest.raises(ValueError):
        run_batch(m, cfg, n_paths=1, i0=2, root_seed=0)


def test_keep_paths_false_drops_paths():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.1, T=2.0),
                      n_paths=3, i0=1, root_seed=0, keep_paths=False)
    assert batch.paths is None
    assert np.all(np.isfinite(batch.uniform_values))


def test_synthetic_batch_wraps_external_data():
    times = np.linspace(0.0, 2.0, 21)
    values = np.exp(-times)[None, :] * np.ones((5, 1))
    batch = SimulationBatch.synthetic(times, values, t0=0.0)
    assert batch.n_paths == 5
    assert batch.n_exploded == 0
    assert batch.paths is None
    with pytest.raises(ValueError):
        SimulationBatch.synthetic(times, np.zeros((5, 3)))
