"""Euler integration: grids, determinism, switching, and convergence."""
from __future__ import annotations

import bisect
import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

import hpsfde.integrator
from hpsfde.errors import NonFiniteState
from hpsfde.integrator import (DEFAULT_BLOCK_SIZE, IntegratorConfig,
                               SimulationBatch, TabulatedWiener,
                               initial_grid, integrate_path, path_streams,
                               run_batch, uniform_grid)
from hpsfde.markov import make_generator, sample_regime_path
from hpsfde.models import (Kernel, Measure, ModelSpec, PantographTerm,
                           PolynomialTerm, single_regime)
from hpsfde.paths import _interp
from hpsfde.presets import PRESET_NAMES, preset

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


@pytest.mark.parametrize("field", ["dt", "T", "blowup_threshold"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_numbers(field, bad):
    # a NaN threshold would switch off threshold crossings
    values = {"dt": 0.1, "T": 2.0, "blowup_threshold": 1e8, field: bad}
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(**values)


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
    b0 = path_streams(1, 0)
    assert a0[0].entropy == b0[0].entropy
    assert a0[0].spawn_key == b0[0].spawn_key
    noise = [path_streams(1, p)[1] for p in range(6)]
    assert len({s.spawn_key for s in noise}) == len(noise)
    assert a0[0].spawn_key != a0[1].spawn_key
    draws = [np.random.Generator(np.random.PCG64(s)).standard_normal()
             for s in noise]
    assert len(set(draws)) == len(draws)


@pytest.mark.parametrize("root_seed", [0, 1, 987654321, 2**64 + 7])
def test_path_streams_are_spawned_seed_sequences(root_seed):
    # the determinism contract: path p's streams are the two children of
    # SeedSequence(root_seed, spawn_key=(p,))
    for p in (0, 1, 1023, 4096):
        want = np.random.SeedSequence(root_seed, spawn_key=(p,)).spawn(2)
        got = path_streams(root_seed, p)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g.generate_state(8), w.generate_state(8))


# ---------------------------------------------------------------------------
# exactness on degenerate models
# ---------------------------------------------------------------------------

def test_zero_coefficients_keep_path_constant():
    batch = run_batch(still_model(0.7), IntegratorConfig(dt=0.25, T=2.0),
                      n_paths=3, i0=1, root_seed=0)
    assert np.all(batch.uniform_values == 0.7)
    for p in batch.paths:
        assert np.all(p.values == 0.7)
        assert _interp(p.times, p.values, 1.37) == 0.7


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
        drifted = float(p.values[-1] - _interp(p.times, p.values, p.t0))
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


def _interp_rule(grid, vals, u):
    i = min(max(bisect.bisect_right(grid, u) - 1, 0), len(grid) - 2)
    w = (u - grid[i]) / (grid[i + 1] - grid[i])
    return vals[i] * (1.0 - w) + vals[i + 1] * w


def _reference_path(m, cfg, p, i0, root_seed):
    """One path, one substep at a time, by the documented scheme.

    A step [t, t + h] is cut at the path's switches inside it.  Each
    substep [a, c] uses the regime at a and the delayed states
    x(theta * a): at or before t (within 1e-15) from the uniform-grid
    history, later from the step's own nodes t, s_1, ..., a, both by
    piecewise-linear interpolation.  A whole step adds
    f h + g (sqrt(h) z), a substep f (c - a) + (g sqrt(c - a)) z.
    Returns the uniform values, the explosion time and the path's nodes
    as (time, value) pairs.
    """
    u_times = uniform_grid(m.t0, cfg.T, cfg.dt)
    init_times = initial_grid(m, float(u_times[1] - u_times[0]))
    init_vals = m.initial_value(init_times)
    n_steps = len(u_times) - 1
    uniform = np.full(n_steps + 1, np.nan)
    exploded = np.nan
    chain_ss, noise_ss = path_streams(root_seed, p)
    rp = sample_regime_path(m.generator, i0, m.t0, cfg.T,
                            np.random.default_rng(chain_ss))
    rng = np.random.Generator(np.random.PCG64(noise_ss))
    z = iter(rng.standard_normal(n_steps + rp.n_jumps).tolist())
    hist_t = list(init_times[:-1]) + [float(u_times[0])]
    hist_x = list(init_vals)
    x = uniform[0] = hist_x[-1]
    switch_nodes = []

    def coefficient(terms, x, phi_at, a):
        total = np.zeros(1)
        for term in terms:
            total = total + term.value(np.array([x]), phi_at, a)
        return float(total[0])

    for k in range(n_steps):
        t, t_next = float(u_times[k]), float(u_times[k + 1])
        inner = [float(s) for s in rp.jump_times if t < s < t_next]
        loc_t, loc_x = [t], [x]
        for a, c in zip([t] + inner, inner + [t_next]):
            def phi_at(thetas, a=a):
                return np.array([
                    _interp_rule(hist_t, hist_x, u) if u <= t + 1e-15
                    else _interp_rule(loc_t, loc_x, u)
                    for u in (thetas * a).tolist()])[:, None]

            r = rp.state_at(a)
            f = coefficient(m.drift[r - 1], x, phi_at, a)
            g = coefficient(m.diffusion[r - 1], x, phi_at, a)
            if inner:
                x = x + f * (c - a) + g * math.sqrt(c - a) * next(z)
            else:
                x = x + f * (c - a) + g * (math.sqrt(c - a) * next(z))
            if not math.isfinite(x):
                exploded = a
                break
            if c < t_next:
                switch_nodes.append((c, x))
                loc_t.append(c)
                loc_x.append(x)
            if abs(x) > cfg.blowup_threshold:
                exploded = c
                if c == t_next:
                    uniform[k + 1] = x
                break
        if not np.isnan(exploded):
            break
        uniform[k + 1] = x
        hist_t.append(t_next)
        hist_x.append(x)
    kept = (n_steps + 1 if np.isnan(exploded)
            else np.searchsorted(u_times, exploded, side="right"))
    nodes = sorted(list(zip(init_times[:-1], init_vals[:-1]))
                   + list(zip(u_times[:kept], uniform[:kept]))
                   + switch_nodes)
    return uniform, exploded, nodes


FOUR_ATOMS = Measure.from_atoms([(0.5, 0.2), (0.9, 0.3), (0.999, 0.3),
                                 (1.0, 0.2)])
# many theta nodes in (t / a, 1] look up between a step's own nodes
UNIFORM_16 = Measure.uniform(0.5, 1.0, nodes=16)


def fast_switching_model(nu=FOUR_ATOMS):
    # rates 40 and 60 against dt = 0.05: most steps hold several
    # switches, up to 9; the atom at 0.999 looks up between a step's own
    # nodes
    kern = Kernel(0.5)
    return ModelSpec(
        theta_lower=0.5, t0=1.0,
        generator=make_generator([[-40.0, 40.0], [60.0, -60.0]]),
        drift=((PolynomialTerm([(1, -1.0), (3, 0.3)]),
                PantographTerm(coeff=0.5, measure=nu, kernel=kern)),
               (PolynomialTerm([(1, 0.5)]),
                PantographTerm(coeff=-0.3, measure=nu, signed=True))),
        diffusion=((PantographTerm(coeff=0.4, measure=nu, kernel=kern,
                                   point_exponent=1.0),),
                   (PolynomialTerm([(1, 0.6)]),)),
        initial_segment=1.2)


@pytest.mark.parametrize("threshold, blow_ups, nu", [
    pytest.param(50.0, {"over at a switch",
                        "over at the end of a switch step"}, FOUR_ATOMS,
                 id="50.0-blow_ups0"),
    pytest.param(1e300, {"non-finite after a switch"}, FOUR_ATOMS,
                 id="1e+300-blow_ups1"),
    pytest.param(50.0, {"over at a switch"}, UNIFORM_16, id="uniform-16"),
])
def test_switch_substeps_match_per_path_reference(threshold, blow_ups, nu):
    m = fast_switching_model(nu)
    cfg = IntegratorConfig(dt=0.05, T=3.0, blowup_threshold=threshold)
    batch = run_batch(m, cfg, n_paths=16, i0=1, root_seed=7, block_size=6)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_reference_path(m, cfg, p, 1, 7) for p in range(16)]
    for p, (uniform, exploded, nodes) in enumerate(ref):
        assert np.array_equal(batch.uniform_values[p], uniform,
                              equal_nan=True)
        assert np.array_equal(batch.exploded_at[p], exploded, equal_nan=True)
        assert batch.paths[p].times.tolist() == [t for t, _ in nodes]
        assert batch.paths[p].values.tolist() == [x for _, x in nodes]

    # the run holds steps with several switches and blow-ups in them
    u = batch.uniform_times
    busiest = 0
    seen = set()
    for path in batch.paths:
        sw = np.setdiff1d(path.times[path.times > m.t0], u)
        busiest = max(busiest, np.bincount(np.searchsorted(u, sw)).max(
            initial=0))
        e = path.exploded_at
        if e is None:
            continue
        over = abs(path.values[-1]) > threshold
        if e in sw:
            seen.add("over at a switch" if over
                     else "non-finite after a switch")
        elif ((sw > u[np.searchsorted(u, e) - 1]) & (sw < e)).any():
            seen.add("over at the end of a switch step" if over
                     else "non-finite at a switch step's start")
    assert busiest >= 2
    assert blow_ups <= seen


def test_own_theta_set_lookups_match_per_path_reference():
    # a pantograph term whose theta set no other term reads, damped by a
    # kernel, in both regimes; at a switch time a inside a step, the
    # lookup x(0.97 a) lies past the step's start, among its own nodes
    own = PantographTerm(coeff=0.3, kernel=Kernel(0.5),
                         measure=Measure.from_atoms([(0.6, 0.2), (0.97, 0.5),
                                                     (1.0, 0.3)]))
    m = ModelSpec(theta_lower=0.5, t0=1.0,
                  generator=make_generator([[-40.0, 40.0], [60.0, -60.0]]),
                  drift=((PolynomialTerm([(1, -0.5)]), own),
                         (PolynomialTerm([(1, 0.5)]), own)),
                  diffusion=((PolynomialTerm([(1, 0.3)]),), (own,)),
                  initial_segment=1.2)
    cfg = IntegratorConfig(dt=0.05, T=3.0)
    batch = run_batch(m, cfg, n_paths=8, i0=1, root_seed=7, block_size=3)
    assert batch.n_switches.sum() > 0
    u = batch.uniform_times
    past_start = False
    for p in range(8):
        uniform, exploded, nodes = _reference_path(m, cfg, p, 1, 7)
        assert batch.uniform_values[p].tobytes() == uniform.tobytes()
        assert batch.paths[p].times.tolist() == [t for t, _ in nodes]
        assert batch.paths[p].values.tolist() == [x for _, x in nodes]
        times = batch.paths[p].times
        sw = np.setdiff1d(times[times > m.t0], u)
        past_start |= bool((0.97 * sw > u[np.searchsorted(u, sw) - 1]).any())
    assert past_start


def test_thetas_within_tolerance_are_read_at_the_nearest_end():
    # a theta within THETA_TOL outside [theta_lower, 1] is read at the
    # nearest end, in a uniform step and in a switch substep alike, not
    # extrapolated past theta_lower * t0 or past the step's own node
    def model(lo, hi):
        nu = Measure.from_atoms([(lo, 0.5), (hi, 0.5)])
        return ModelSpec(
            theta_lower=0.5, t0=1.0,
            generator=make_generator([[-40.0, 40.0], [60.0, -60.0]]),
            drift=((PolynomialTerm([(1, -1.0)]),
                    PantographTerm(coeff=0.5, measure=nu)),
                   (PantographTerm(coeff=-0.3, measure=nu, signed=True),)),
            diffusion=((PantographTerm(coeff=0.4, measure=nu,
                                       point_exponent=1.0),),
                       (PolynomialTerm([(1, 0.6)]),)),
            initial_segment=1.2)

    cfg = IntegratorConfig(dt=0.05, T=3.0)
    near = run_batch(model(0.5 - 1e-13, 1.0 + 1e-13), cfg, n_paths=16,
                     i0=1, root_seed=7)
    at = run_batch(model(0.5, 1.0), cfg, n_paths=16, i0=1, root_seed=7)
    assert near.n_switches.sum() > 0
    assert near.uniform_values.tobytes() == at.uniform_values.tobytes()
    assert near.paths.node_value.tobytes() == at.paths.node_value.tobytes()


def dying_model():
    # regime 1 is a random walk that crosses the threshold at grid
    # times; entering regime 2 makes the drift 1e308 + 1e308 = inf, so
    # the state turns non-finite; entering regime 3 crosses at the end
    # of the substep, which is a switch node when regime 1 returns
    # within the step
    return ModelSpec(
        theta_lower=0.5, t0=1.0,
        generator=make_generator([[-3.0, 1.0, 2.0], [5.0, -5.0, 0.0],
                                  [30.0, 0.0, -30.0]]),
        drift=((), (PolynomialTerm([(0, 1e308)]),
                    PolynomialTerm([(0, 1e308)])),
               (PolynomialTerm([(0, 1e6)]),)),
        diffusion=((PolynomialTerm([(0, 1.0)]),), (), ()),
        initial_segment=0.0)


# block sizes around the normal buffer's chunk: one row, a partial
# chunk, blocks that span several chunks and end partway through one,
# and the default, where 160 rows are one block of five chunks
CHUNKED_BLOCKS = (1, 3, 67, 150, DEFAULT_BLOCK_SIZE)


def _assert_matches_reference(batch, ref):
    for p, (uniform, exploded, nodes) in enumerate(ref):
        assert batch.uniform_values[p].tobytes() == uniform.tobytes()
        assert batch.exploded_at[p].tobytes() == np.float64(
            exploded).tobytes()
        path = batch.paths[p]
        assert path.times.tolist() == [t for t, _ in nodes]
        assert path.values.tobytes() == np.array(
            [x for _, x in nodes]).tobytes()


def test_dead_rows_match_per_path_reference():
    # rows die at the first and the last uniform step, at switch nodes
    # and non-finite inside step 0; the grid values are filled from the
    # history once per block, and each block splits its rows' streams
    # chunk by chunk into step and switch normals
    chunk = hpsfde.integrator._NORMAL_ROWS
    assert 67 > 2 * chunk and 67 % chunk and 150 % chunk
    m = dying_model()
    cfg = IntegratorConfig(dt=0.1, T=1.4, blowup_threshold=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_reference_path(m, cfg, p, 1, 1) for p in range(160)]
    u = uniform_grid(m.t0, cfg.T, cfg.dt)
    seen = set()
    for uniform, exploded, nodes in ref:
        if np.isnan(exploded):
            seen.add("survived")
            continue
        over = abs(nodes[-1][1]) > cfg.blowup_threshold
        k = np.searchsorted(u, exploded, side="left" if over else "right")
        if not over and k == 1:
            seen.add("non-finite in step 0")
        if over and exploded not in u:
            seen.add("over at a switch")
        if k == 1:
            seen.add("first step")
        if k == len(u) - 1:
            seen.add("last step")
    assert seen == {"survived", "non-finite in step 0", "over at a switch",
                    "first step", "last step"}

    for block in (7,) + CHUNKED_BLOCKS:
        batch = run_batch(m, cfg, n_paths=160, i0=1, root_seed=1,
                          block_size=block)
        assert batch.n_switches.max() >= 3
        _assert_matches_reference(batch, ref)


def test_switch_normals_match_reference_across_chunks():
    # rows with up to 9 switches in one step and threshold crossings at
    # and after switches read every switch normal; the blocks cut the
    # normal buffer's chunks at other rows
    m = fast_switching_model()
    cfg = IntegratorConfig(dt=0.05, T=3.0, blowup_threshold=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_reference_path(m, cfg, p, 1, 7) for p in range(160)]
    for block in CHUNKED_BLOCKS:
        batch = run_batch(m, cfg, n_paths=160, i0=1, root_seed=7,
                          block_size=block)
        assert 0 < batch.n_exploded < 80
        _assert_matches_reference(batch, ref)


def test_thread_count_does_not_change_results(monkeypatch):
    # a block of long rows draws its normals on min(cores, chunks)
    # threads, the calling thread and a pool of the others: blocks of 67,
    # 150 and the default 160 rows hold 3, 5 and 5 chunks, cut at other
    # rows, and the last blocks of 26 and 10 rows one chunk, which the
    # calling thread draws alone.  8 cores gives each chunk of a block
    # its own thread, and a short switch interval makes the threads
    # interleave often.
    m = fast_switching_model()
    cfg = IntegratorConfig(dt=0.05, T=3.0, blowup_threshold=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_reference_path(m, cfg, p, 1, 7) for p in range(160)]
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(hpsfde.integrator, "ThreadPoolExecutor", Recorded)
    # rows of 40 steps are too short to pay for a pool
    monkeypatch.setattr(hpsfde.integrator, "_usable_cores", lambda: 3)
    _assert_matches_reference(run_batch(m, cfg, n_paths=160, i0=1,
                                        root_seed=7), ref)
    assert pools == []
    monkeypatch.setattr(hpsfde.integrator, "_THREADED_STEPS", 40)
    chunk = hpsfde.integrator._NORMAL_ROWS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(hpsfde.integrator, "_usable_cores",
                                lambda n=cores: n)
            for block in (67, 150, DEFAULT_BLOCK_SIZE):
                del pools[:]
                before = threading.active_count()
                batch = run_batch(m, cfg, n_paths=160, i0=1, root_seed=7,
                                  block_size=block)
                assert threading.active_count() == before
                chunks = [-(-min(block, 160 - s) // chunk)
                          for s in range(0, 160, block)]
                assert pools == [min(cores, c) - 1 for c in chunks
                                 if min(cores, c) > 1]
                _assert_matches_reference(batch, ref)
    finally:
        sys.setswitchinterval(interval)


def test_a_slot_is_split_before_it_is_drawn_into_again(monkeypatch):
    # a pool whose submit draws at once: a slot handed to a later chunk
    # before the calling thread has split it would be overwritten there.
    # 400 rows hold 13 chunks, more than the two slots per thread.
    submitted = []

    class AtOnce:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[0])
            done = Future()
            done.set_result(fn(*args))
            return done

    m = preset("exp_stable")
    cfg = IntegratorConfig(dt=0.05, T=3.0)
    base = run_batch(m, cfg, n_paths=400, i0=1, root_seed=9)
    assert base.n_switches.sum() > 0
    monkeypatch.setattr(hpsfde.integrator, "ThreadPoolExecutor", AtOnce)
    monkeypatch.setattr(hpsfde.integrator, "_THREADED_STEPS", 40)
    for cores in (2, 3):
        monkeypatch.setattr(hpsfde.integrator, "_usable_cores",
                            lambda n=cores: n)
        assert -(-400 // hpsfde.integrator._NORMAL_ROWS) > 2 * cores
        del submitted[:]
        other = run_batch(m, cfg, n_paths=400, i0=1, root_seed=9)
        assert len(submitted) == 13 - len(range(0, 13, cores))
        assert other.uniform_values.tobytes() == base.uniform_values.tobytes()
        assert other.exploded_at.tobytes() == base.exploded_at.tobytes()
        assert (other.paths.node_value.tobytes()
                == base.paths.node_value.tobytes())


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    usable = hpsfde.integrator._usable_cores
    if hasattr(os, "sched_getaffinity"):
        assert usable() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable() == 1


def test_absorbing_start_samples_no_chain(monkeypatch):
    # regime 1 never leaves, regime 2 jumps to it at rate 1: a batch that
    # starts in 1 samples no chain, one that starts in 2 samples each
    m = dataclasses.replace(
        fast_switching_model(),
        generator=make_generator([[0.0, 0.0], [1.0, -1.0]]))
    cfg = IntegratorConfig(dt=0.1, T=3.0)
    refs = {i0: [_reference_path(m, cfg, p, i0, 5) for p in range(150)]
            for i0 in (1, 2)}
    sampled = []

    def refuse(*args):
        raise AssertionError("sampled a chain from an absorbing start")

    def count(*args):
        sampled.append(args[1])
        return sample_regime_path(*args)

    for block in CHUNKED_BLOCKS:
        monkeypatch.setattr(hpsfde.integrator, "sample_regime_path", refuse)
        batch = run_batch(m, cfg, n_paths=150, i0=1, root_seed=5,
                          block_size=block)
        assert not batch.n_switches.any()
        assert (batch.regimes_uniform == 1).all()
        _assert_matches_reference(batch, refs[1])

        monkeypatch.setattr(hpsfde.integrator, "sample_regime_path", count)
        sampled.clear()
        batch = run_batch(m, cfg, n_paths=150, i0=2, root_seed=5,
                          block_size=block)
        assert sampled == [2] * 150
        assert 0 < np.count_nonzero(batch.n_switches) < 150
        _assert_matches_reference(batch, refs[2])


def test_jump_at_a_grid_time_reads_no_normal(monkeypatch):
    # a jump exactly at a grid time changes the regime of the next step
    # and starts no substep; the rows after it in the chunk still read
    # their own normals
    m = fast_switching_model()
    cfg = IntegratorConfig(dt=0.05, T=3.0)
    u = uniform_grid(m.t0, cfg.T, cfg.dt)
    real = sample_regime_path

    def snapped(g, i0, t0, T, seed):
        rp = real(g, i0, t0, T, seed)
        jumps = rp.jump_times.copy()
        k = np.searchsorted(u, jumps[:1])
        if len(jumps) == 1 or len(jumps) and jumps[1] > u[k[0]]:
            jumps[0] = u[k[0]]
        return dataclasses.replace(rp, jump_times=jumps)

    monkeypatch.setattr(hpsfde.integrator, "sample_regime_path", snapped)
    monkeypatch.setitem(globals(), "sample_regime_path", snapped)
    on_grid = [np.isin(snapped(m.generator, 1, m.t0, cfg.T,
                               np.random.default_rng(
                                   path_streams(7, p)[0])).jump_times,
                       u).any() for p in range(40)]
    assert sum(on_grid) >= 5
    ref = [_reference_path(m, cfg, p, 1, 7) for p in range(40)]
    for block in (3, DEFAULT_BLOCK_SIZE):
        batch = run_batch(m, cfg, n_paths=40, i0=1, root_seed=7,
                          block_size=block)
        _assert_matches_reference(batch, ref)


def test_path_store_builds_each_path_on_demand():
    # the store builds path p by the rule the batch once applied to every
    # path eagerly: initial, grid and reached switch nodes in time order,
    # each in the regime of the path's chain at its time
    m = dying_model()
    cfg = IntegratorConfig(dt=0.1, T=1.4, blowup_threshold=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_reference_path(m, cfg, p, 1, 1) for p in range(40)]
    chains = [sample_regime_path(m.generator, 1, m.t0, cfg.T,
                                 np.random.default_rng(path_streams(1, p)[0]))
              for p in range(40)]
    for block in (1, 3, DEFAULT_BLOCK_SIZE):
        batch = run_batch(m, cfg, n_paths=40, i0=1, root_seed=1,
                          block_size=block)
        store = batch.paths
        # rows that switch, rows that die non-finite, rows that cross
        assert batch.n_switches.sum() > 0
        dead = [store[p] for p in np.flatnonzero(batch.exploded_mask)]
        assert any(abs(path.values[-1]) > 1.0 for path in dead)
        assert any(abs(path.values[-1]) <= 1.0 for path in dead)
        assert len(store) == 40
        for p, (uniform, exploded, nodes) in enumerate(ref):
            path = store[p]
            times = np.array([t for t, _ in nodes])
            assert path.times.tobytes() == times.tobytes()
            assert path.values.tobytes() == np.array(
                [x for _, x in nodes]).tobytes()
            assert path.regimes.dtype == np.int64
            assert path.regimes.tolist() == chains[p].state_at(
                times).tolist()
            assert path.exploded_at == (None if np.isnan(exploded)
                                        else exploded)
        last = store[-1]
        assert last.times.tobytes() == store[39].times.tobytes()
        assert last.values.tobytes() == store[39].values.tobytes()
        for p in (40, -41):
            with pytest.raises(IndexError):
                store[p]
        listed = list(store)
        assert len(listed) == 40
        assert all(a.values.tobytes() == store[p].values.tobytes()
                   for p, a in enumerate(listed))


def test_uniform_values_match_kept_paths():
    m = preset("exp_stable")
    batch = run_batch(m, IntegratorConfig(dt=0.1, T=2.0), n_paths=6, i0=1,
                      root_seed=9)
    for p, path in enumerate(batch.paths):
        got = _interp(path.times, path.values, batch.uniform_times)
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


def density_model():
    nu = Measure.uniform(0.6, 1.0, nodes=16)
    return ModelSpec(theta_lower=0.5, t0=1.0,
                     generator=make_generator([[-3.0, 3.0], [4.0, -4.0]]),
                     drift=((PolynomialTerm([(1, -1.0), (3, -1.0)]),
                             PantographTerm(coeff=0.4, measure=nu,
                                            kernel=Kernel(0.5))),
                            (PantographTerm(coeff=0.2, measure=nu,
                                            signed=True),)),
                     diffusion=((PantographTerm(coeff=0.3, measure=nu),),
                                (PolynomialTerm([(1, 0.2)]),)),
                     initial_segment=0.8)


def test_workers_and_block_size_do_not_change_results():
    cfg = IntegratorConfig(dt=0.05, T=2.0)
    for m in [preset(name) for name in PRESET_NAMES] + [density_model()]:
        base = run_batch(m, cfg, n_paths=23, i0=1, root_seed=3)
        assert base.n_switches.sum() > 0
        for workers, block in ((1, 1), (1, 3), (1, 7), (3, 7), (4, 5),
                               (2, 23)):
            other = run_batch(m, cfg, n_paths=23, i0=1, root_seed=3,
                              workers=workers, block_size=block)
            assert np.array_equal(base.uniform_values, other.uniform_values,
                                  equal_nan=True)
            assert np.array_equal(base.regimes_uniform,
                                  other.regimes_uniform)
            assert np.array_equal(base.exploded_at, other.exploded_at,
                                  equal_nan=True)
            for a, b in zip(base.paths, other.paths):
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.regimes, b.regimes)


def test_block_split_across_the_old_default_does_not_change_results():
    # 1100 rows: one block at the default, 1024 + 76 and 550 + 550 below it
    m = preset("exp_stable")
    cfg = IntegratorConfig(dt=0.05, T=1.5)
    base = run_batch(m, cfg, n_paths=1100, i0=1, root_seed=4,
                     keep_paths=False)
    assert base.n_switches.sum() > 0
    for block in (1024, 550):
        other = run_batch(m, cfg, n_paths=1100, i0=1, root_seed=4,
                          block_size=block, keep_paths=False)
        assert np.array_equal(base.uniform_values, other.uniform_values,
                              equal_nan=True)
        assert np.array_equal(base.regimes_uniform, other.regimes_uniform)
        assert np.array_equal(base.exploded_at, other.exploded_at,
                              equal_nan=True)


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


@pytest.mark.parametrize("change, message", [
    # swapped interior times read the table out of order
    (lambda t, v: t.__setitem__([3, 4], t[[4, 3]]), "times must be a finite, "
     "strictly increasing grid"),
    # a NaN time flags every path as exploded
    (lambda t, v: t.__setitem__(3, np.nan), "times must be a finite, "
     "strictly increasing grid"),
    # an infinite value flags its path as exploded
    (lambda t, v: v.__setitem__((0, 2), np.inf), "values must be finite"),
    (lambda t, v: v.__setitem__((1, 5), np.nan), "values must be finite")],
    ids=["swapped_times", "nan_time", "inf_value", "nan_value"])
def test_tabulated_wiener_checks_its_table(change, message):
    w = TabulatedWiener.sample(1.0, 2.0, 0.1, n_paths=5, root_seed=1)
    times, values = w.times.copy(), w.values.copy()
    change(times, values)
    with pytest.raises(ValueError, match=message):
        TabulatedWiener(times, values)


def test_tabulated_wiener_needs_two_times():
    # a one-node table has no piece to read, so increment() would fail
    with pytest.raises(ValueError, match="times must hold at least 2 times"):
        TabulatedWiener(np.array([1.0]), np.zeros((5, 1)))
    with pytest.raises(ValueError, match="times must hold at least 2 times"):
        TabulatedWiener(np.zeros(0), np.zeros((5, 0)))


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
    for block_size in (0, -2):
        with pytest.raises(ValueError, match="block_size"):
            run_batch(m, cfg, n_paths=3, i0=1, root_seed=0,
                      block_size=block_size)


@pytest.mark.parametrize("argument", ["n_paths", "block_size"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None, 0, -1],
                         ids=["fraction", "integral-float", "bool", "string",
                              "none", "zero", "negative"])
def test_counts_are_integers_from_one(argument, value):
    # checked before any work, by the rule of the regime indices
    args = {"n_paths": 3, "block_size": 2, argument: value}
    with pytest.raises(ValueError, match="%s must be an integer >= 1, got %r"
                       % (argument, value)):
        run_batch(gbm_model(), IntegratorConfig(dt=0.1, T=2.0), i0=1,
                  root_seed=0, **args)


def test_numpy_integer_counts_are_accepted():
    cfg = IntegratorConfig(dt=0.1, T=2.0)
    want = run_batch(gbm_model(), cfg, n_paths=3, i0=1, root_seed=0,
                     block_size=2)
    got = run_batch(gbm_model(), cfg, n_paths=np.int64(3), i0=1,
                    root_seed=0, block_size=np.int32(2))
    assert got.uniform_values.tobytes() == want.uniform_values.tobytes()


def test_keep_paths_false_drops_paths():
    batch = run_batch(gbm_model(), IntegratorConfig(dt=0.1, T=2.0),
                      n_paths=3, i0=1, root_seed=0, keep_paths=False)
    assert batch.paths is None
    assert np.all(np.isfinite(batch.uniform_values))


# Peak traced memory of a batch over its grid values' bytes.  The grid
# values, the int16 regime grid and one block's history (one float64 per
# path per step) come to about 2.3; step normals wait in the history
# rows.  Each switch adds its table entries and lookup tables, about
# 0.8 more at 18 switches per path on a dt=0.01 grid.
@pytest.mark.parametrize("model, n_paths, bound", [
    (single_regime(preset("exp_stable"), 1), 1000, 2.5),
    (preset("exp_stable"), 500, 3.5)], ids=["switch_free", "switching"])
def test_batch_holds_each_path_by_step_array_once(model, n_paths, bound):
    cfg = IntegratorConfig(dt=0.01, T=15.0)
    # a first batch imports what a batch imports on first use
    run_batch(model, IntegratorConfig(dt=0.01, T=2.0), n_paths=2, i0=1,
              root_seed=3, keep_paths=False)
    tracemalloc.start()
    try:
        batch = run_batch(model, cfg, n_paths=n_paths, i0=1, root_seed=3,
                          keep_paths=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * batch.uniform_values.nbytes, (
        peak / batch.uniform_values.nbytes)


def test_synthetic_batch_wraps_external_data():
    times = np.linspace(0.0, 2.0, 21)
    values = np.exp(-times)[None, :] * np.ones((5, 1))
    batch = SimulationBatch.synthetic(times, values)
    assert batch.n_paths == 5
    assert batch.n_exploded == 0
    assert batch.paths is None
    with pytest.raises(ValueError):
        SimulationBatch.synthetic(times, np.zeros((5, 3)))


def test_synthetic_batch_checks_exploded_at_shape():
    times = np.linspace(1.0, 2.0, 11)
    values = np.ones((5, len(times)))
    for exploded_at in (np.full(3, np.nan), np.full((5, 1), np.nan), 1.5):
        with pytest.raises(ValueError, match=r"exploded_at must have shape "
                           r"\(n_paths,\) = \(5,\)"):
            SimulationBatch.synthetic(times, values, exploded_at=exploded_at)
    at = [np.nan, 1.5, np.nan, np.nan, np.nan]
    batch = SimulationBatch.synthetic(times, values, exploded_at=at)
    assert batch.t0 == 1.0 and batch.n_exploded == 1


def test_synthetic_batch_checks_the_time_grid():
    # an unordered grid would give trapezoids of negative width, a NaN or
    # infinite time NaN estimates
    values = np.ones((5, 4))
    for times in ([1.0, 2.0, 1.5, 3.0], [1.0, 2.0, 2.0, 3.0],
                  [1.0, 2.0, np.nan, 3.0], [1.0, 2.0, 3.0, np.inf]):
        with pytest.raises(ValueError, match="times must be a finite, "
                           "strictly increasing grid"):
            SimulationBatch.synthetic(times, values)
    with pytest.raises(ValueError, match="times must be"):
        SimulationBatch.synthetic(np.ones((1, 4)), values)
    batch = SimulationBatch.synthetic([1.0, 1.5, 2.0, 3.0], values)
    assert batch.t0 == 1.0 and batch.T == 3.0
