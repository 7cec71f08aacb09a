"""Generator validation, exact chain sampling, stationary distributions."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpsfde.errors import NegativeOffDiagonal, ReducibleChain, RowSumNonZero
from hpsfde.markov import (GeneratorMatrix, make_generator,
                           sample_regime_path, stationary_distribution)

TWO_STATE = [[-1.0, 1.0], [2.0, -2.0]]


def test_make_generator_accepts_valid_matrix():
    g = make_generator(TWO_STATE)
    assert isinstance(g, GeneratorMatrix)
    assert g.n_states == 2
    assert np.array_equal(g.rates, TWO_STATE)


def test_make_generator_rejects_non_square():
    with pytest.raises(ValueError):
        make_generator([[-1.0, 1.0]])


def test_make_generator_rejects_negative_off_diagonal():
    with pytest.raises(NegativeOffDiagonal):
        make_generator([[-1.0, -1.0], [2.0, -2.0]])


def test_make_generator_rejects_bad_row_sum():
    with pytest.raises(RowSumNonZero):
        make_generator([[-1.0, 1.5], [2.0, -2.0]])


def test_make_generator_tolerates_tiny_row_sum_error():
    g = make_generator([[-1.0, 1.0 + 1e-13], [2.0, -2.0]])
    assert g.n_states == 2


@pytest.mark.parametrize("rates", [
    [[-1.0, 1.0], [np.nan, np.nan]],
    [[-np.inf, np.inf], [2.0, -2.0]],
    [[np.nan]],
])
def test_make_generator_rejects_non_finite_rates(rates):
    # sampling from a NaN rate never returns, so the raise must come first
    with pytest.raises(ValueError, match="finite"):
        make_generator(rates)


@pytest.mark.parametrize("rates, error", [
    ([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], ValueError),
    ([[1.0, -1.0], [0.0, 0.0]], NegativeOffDiagonal),
    ([[-1.0, 1.0], [2.0, -1.0]], RowSumNonZero),
], ids=["2x3", "negative-off-diagonal", "row-sum"])
def test_generator_constructor_checks_its_rates(rates, error):
    with pytest.raises(error):
        GeneratorMatrix(rates)


def test_generator_rates_read_only():
    g = make_generator(TWO_STATE)
    with pytest.raises(ValueError):
        g.rates[0, 0] = 5.0


def test_generators_compare_and_hash_by_identity():
    g1, g2 = make_generator(TWO_STATE), make_generator(TWO_STATE)
    assert g1 == g1 and g1 != g2
    assert hash(g1) == hash(g1) and hash(g1) != hash(g2)
    table = {g1: "first", g2: "second"}
    assert table[g1] == "first" and table[g2] == "second"


def test_regime_paths_compare_and_hash_by_identity():
    g = make_generator(TWO_STATE)
    p1, p2 = (sample_regime_path(g, 1, 0.0, 5.0, seed=s) for s in (1, 2))
    assert p1 == p1 and p1 != p2
    assert hash(p1) == hash(p1) and hash(p1) != hash(p2)
    table = {p1: "first", p2: "second"}
    assert table[p1] == "first" and table[p2] == "second"


def test_sample_path_structure():
    g = make_generator(TWO_STATE)
    rp = sample_regime_path(g, 1, 1.0, 50.0, seed=123)
    assert rp.states[0] == 1
    assert len(rp.states) == len(rp.jump_times) + 1
    assert np.all(np.diff(rp.jump_times) > 0)
    assert np.all(rp.jump_times > 1.0)
    assert np.all(rp.jump_times < 50.0)
    # consecutive states differ (jump chain never self-loops)
    assert np.all(np.diff(rp.states) != 0)


@pytest.mark.parametrize("t0, T", [(2.0, 2.0), (3.0, 2.0)])
def test_sample_path_needs_t0_before_T(t0, T):
    with pytest.raises(ValueError, match="need t0 < T"):
        sample_regime_path(make_generator(TWO_STATE), 1, t0, T, seed=1)


def test_sample_path_needs_a_finite_horizon():
    # an absorbing start returns at once, so it is checked first; from a
    # state that jumps, an infinite horizon would never stop sampling
    absorbing = make_generator([[0.0, 0.0], [1.0, -1.0]])
    for t0, T in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                  (0.0, np.nan)):
        with pytest.raises(ValueError, match="need t0 < T, both finite"):
            sample_regime_path(absorbing, 1, t0, T, seed=1)
    g = make_generator(TWO_STATE)
    for t0, T in ((0.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="need t0 < T, both finite, "
                           "got t0=%r T=%r" % (t0, T)):
            sample_regime_path(g, 1, t0, T, seed=1)


def test_sample_path_deterministic_per_seed():
    g = make_generator(TWO_STATE)
    a = sample_regime_path(g, 1, 1.0, 100.0, seed=7)
    b = sample_regime_path(g, 1, 1.0, 100.0, seed=7)
    c = sample_regime_path(g, 1, 1.0, 100.0, seed=8)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_state_at_right_continuous():
    g = make_generator(TWO_STATE)
    rp = sample_regime_path(g, 1, 1.0, 20.0, seed=5)
    assert rp.n_jumps > 0
    s = rp.jump_times[0]
    after = rp.states[1]
    assert rp.state_at(s) == after
    assert rp.state_at(s - 1e-9) != after or rp.states[0] == after
    assert rp.state_at(1.0) == 1


def test_single_state_chain_has_no_jumps():
    g = make_generator([[0.0]])
    rp = sample_regime_path(g, 1, 1.0, 10.0, seed=0)
    assert rp.n_jumps == 0
    assert rp.state_at(5.0) == 1


def test_absorbing_state_stops_jumping():
    g = make_generator([[-1.0, 1.0], [0.0, 0.0]])
    rp = sample_regime_path(g, 1, 1.0, 1000.0, seed=3)
    assert rp.n_jumps == 1
    assert rp.state_at(999.0) == 2


def test_absorbing_threshold():
    # a state that leaves at rate 1e-300 would jump long before 1e308,
    # but the sampler treats it as absorbing
    g = make_generator([[-1e-300, 1e-300], [1.0, -1.0]])
    assert g.absorbing(1) and not g.absorbing(2)
    assert sample_regime_path(g, 1, 0.0, 1e308, seed=3).n_jumps == 0
    rp = sample_regime_path(g, 2, 0.0, 1e308, seed=3)
    assert rp.states.tolist() == [2, 1]


def test_occupation_fractions_sum_to_one():
    g = make_generator(TWO_STATE)
    rp = sample_regime_path(g, 1, 1.0, 30.0, seed=11)
    occ = rp.occupation_fractions(2)
    assert occ.shape == (2,)
    assert abs(occ.sum() - 1.0) < 1e-12


def test_long_run_occupation_near_stationary():
    # ergodic theorem sanity run; the tight version is an acceptance test
    g = make_generator(TWO_STATE)
    rp = sample_regime_path(g, 1, 1.0, 5000.0, seed=42)
    occ = rp.occupation_fractions(2)
    assert abs(occ[0] - 2.0 / 3.0) < 0.03
    assert abs(occ[1] - 1.0 / 3.0) < 0.03


def test_stationary_distribution_two_state_exact():
    pi = stationary_distribution(make_generator(TWO_STATE))
    assert abs(pi[0] - 2.0 / 3.0) < 1e-12
    assert abs(pi[1] - 1.0 / 3.0) < 1e-12


def test_stationary_distribution_single_state():
    pi = stationary_distribution(make_generator([[0.0]]))
    assert pi.shape == (1,)
    assert pi[0] == 1.0


def test_stationary_distribution_solves_pi_gamma_zero():
    rates = [[-2.0, 1.5, 0.5], [0.3, -0.8, 0.5], [1.0, 2.0, -3.0]]
    g = make_generator(rates)
    pi = stationary_distribution(g)
    assert np.all(pi >= 0)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.max(np.abs(pi @ g.rates)) < 1e-12


def test_stationary_distribution_rejects_reducible_chain():
    # two disconnected blocks: the stationary law is not unique
    rates = [[-1.0, 1.0, 0.0, 0.0],
             [1.0, -1.0, 0.0, 0.0],
             [0.0, 0.0, -2.0, 2.0],
             [0.0, 0.0, 2.0, -2.0]]
    with pytest.raises(ReducibleChain):
        stationary_distribution(make_generator(rates))


def test_absorbing_chain_stationary_is_point_mass():
    g = make_generator([[-1.0, 1.0], [0.0, 0.0]])
    pi = stationary_distribution(g)
    assert abs(pi[0]) < 1e-12
    assert abs(pi[1] - 1.0) < 1e-12


@st.composite
def generators(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rows = []
    for i in range(n):
        off = [draw(st.floats(min_value=0.0, max_value=5.0)) for _ in
               range(n - 1)]
        row = off[:i] + [-sum(off)] + off[i:]
        rows.append(row)
    return rows


@given(generators(), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_sampled_paths_respect_generator_support(rates, seed):
    g = make_generator(rates)
    rp = sample_regime_path(g, 1, 1.0, 11.0, seed=seed)
    assert np.all(rp.states >= 1)
    assert np.all(rp.states <= g.n_states)
    assert np.all(np.diff(rp.jump_times) > 0)
    # a state is only left through a positive rate
    for s_from, s_to in zip(rp.states[:-1], rp.states[1:]):
        assert g.rates[s_from - 1, s_to - 1] > 0.0


THREE_STATE = [[-3.0, 1.0, 2.0], [0.5, -2.0, 1.5], [4.0, 1.0, -5.0]]


def per_jump_reference(g, i0, t0, T, seed):
    """sample_regime_path with the destination row rebuilt at each jump."""
    rng = np.random.default_rng(seed)
    q = g.rates
    jumps, states, t, i = [], [i0], t0, i0
    while True:
        rate = float(-q[i - 1, i - 1])
        if rate <= 1e-300:
            break
        t = t + rng.exponential(1.0 / rate)
        if t >= T:
            break
        row = q[i - 1].copy()
        row[i - 1] = 0.0
        cum = np.cumsum(row / rate)
        j = min(int(np.searchsorted(cum, rng.random(), side="right")) + 1,
                g.n_states)
        jumps.append(t)
        states.append(j)
        i = j
    return np.asarray(jumps), np.asarray(states)


@pytest.mark.parametrize("seed", range(10))
def test_jump_table_matches_per_jump_reference(seed):
    g = make_generator(THREE_STATE)
    rp = sample_regime_path(g, 2, 0.0, 40.0, seed)
    jumps, states = per_jump_reference(g, 2, 0.0, 40.0, seed)
    assert rp.n_jumps > 50
    assert np.array_equal(rp.jump_times, jumps)
    assert np.array_equal(rp.states, states)


def test_jump_destinations_follow_embedded_chain():
    g = make_generator(THREE_STATE)
    rp = sample_regime_path(g, 1, 0.0, 7000.0, 11)
    src, dst = rp.states[:-1], rp.states[1:]
    assert rp.n_jumps > 20000
    for i in range(1, 4):
        n = int((src == i).sum())
        for j in range(1, 4):
            if j == i:
                continue
            prob = THREE_STATE[i - 1][j - 1] / -THREE_STATE[i - 1][i - 1]
            freq = float((dst[src == i] == j).mean())
            assert abs(freq - prob) < 4.0 * np.sqrt(prob * (1 - prob) / n)
