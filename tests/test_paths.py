"""Dense paths, their piecewise-linear rule, CSV export."""
from __future__ import annotations

import io

import numpy as np
import pytest

from hpsfde.integrator import IntegratorConfig, run_batch
from hpsfde.markov import make_generator
from hpsfde.models import ModelSpec, PolynomialTerm
from hpsfde.paths import (ConstantSegment, DensePath, _interp, write_csv,
                          write_table)
from hpsfde.presets import preset


def make_path(times, values, theta_lower=0.5, t0=1.0, regimes=None,
              exploded_at=None):
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if regimes is None:
        regimes = np.ones(len(times), dtype=np.int64)
    return DensePath(times=times, values=values, regimes=np.asarray(regimes),
                     theta_lower=theta_lower, t0=t0, exploded_at=exploded_at)


SIMPLE = make_path([0.5, 0.75, 1.0, 1.5, 2.0], [0.0, 1.0, 2.0, 1.0, 3.0])


def test_interp_exact_at_grid_points():
    for t, want in zip(SIMPLE.times, SIMPLE.values):
        assert _interp(SIMPLE.times, SIMPLE.values, t) == want


def test_interp_linear_between_grid_points():
    assert _interp(SIMPLE.times, SIMPLE.values, 1.25) == pytest.approx(
        1.5, abs=1e-15)
    assert _interp(SIMPLE.times, SIMPLE.values, 0.625) == pytest.approx(
        0.5, abs=1e-15)


def test_interp_vectorized_shape():
    out = _interp(SIMPLE.times, SIMPLE.values, np.array([0.5, 1.0, 2.0]))
    assert out.shape == (3,)
    assert np.array_equal(out, [0.0, 2.0, 3.0])
    grid = np.array([[0.5, 1.0], [1.5, 2.0]])
    assert _interp(SIMPLE.times, SIMPLE.values, grid).shape == (2, 2)


def test_constant_segment():
    seg = ConstantSegment(0.5, 0.7)
    assert seg.point == 0.5
    assert seg(0.9) == 0.5
    out = seg(np.array([0.7, 1.0]))
    assert out.shape == (2,)
    assert np.all(out == 0.5)


def test_write_csv_layout_and_determinism(tmp_path):
    p = make_path([0.5, 1.0, 2.0], [0.25, 0.5, -1.0],
                  regimes=[1, 1, 2])
    buf = io.StringIO()
    write_csv(p, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,regime,x_1"
    assert lines[1] == "0.5,1,0.25"
    assert lines[3] == "2,2,-1"
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    write_csv(p, str(f1))
    write_csv(p, f2)
    assert f1.read_bytes() == f2.read_bytes()
    # a file path and a text stream get the same UTF-8 bytes
    assert f1.read_bytes() == buf.getvalue().encode("utf-8")


def test_csv_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(4)
    times = np.sort(np.concatenate(([0.5, 1.0], 1.0 + rng.random(20))))
    p = make_path(times, rng.standard_normal(len(times)))
    dest = tmp_path / "p.csv"
    write_csv(p, str(dest))
    back = np.loadtxt(str(dest), delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], p.times)
    assert np.array_equal(back[:, 2], p.values)


def test_write_table_layout():
    buf = io.StringIO()
    write_table(buf, ["t", "n", "x"],
                [np.array([0.1, 2.0]), np.array([1, 12]),
                 np.array([-0.0, np.nan])], footer=("# end,1",))
    assert buf.getvalue() == ("t,n,x\n0.10000000000000001,1,-0\n"
                              "2,12,nan\n# end,1\n")


def test_write_table_writes_str_columns_as_given():
    buf = io.StringIO()
    write_table(buf, ["t", "label", "x"],
                [["0.5", "1e+300"], ["a", "b"], [0.25, 3]])
    assert buf.getvalue() == "t,label,x\n0.5,a,0.25\n1e+300,b,3\n"


@pytest.mark.parametrize("header, columns, why", [
    (["a", "b"], [np.array([1.0, 2.0, 3.0]), np.array([1, 2])],
     "unequal lengths"),
    (["a", "b"], [["x", "y"], [1.0]], "unequal lengths"),
    (["a", "b", "c"], [np.array([1.0, 2.0])], "3 header names for 1"),
    (["a"], [np.array([1.0]), np.array([2.0])], "1 header names for 2"),
])
def test_write_table_checks_its_shape(header, columns, why):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=why):
        write_table(buf, header, columns)
    assert buf.getvalue() == ""


def three_regime_model():
    # regime 1 is a random walk that crosses the threshold at grid
    # times; entering regime 2 makes the drift inf, so the state turns
    # non-finite; entering regime 3 crosses at a switch node
    return ModelSpec(
        theta_lower=0.5, t0=1.0,
        generator=make_generator([[-3.0, 1.0, 2.0], [5.0, -5.0, 0.0],
                                  [30.0, 0.0, -30.0]]),
        drift=((), (PolynomialTerm([(0, 1e308)]),
                    PolynomialTerm([(0, 1e308)])),
               (PolynomialTerm([(0, 1e6)]),)),
        diffusion=((PolynomialTerm([(0, 1.0)]),), (), ()),
        initial_segment=-0.25)


STORE_CASES = {
    # a table initial segment with negative states, started in regime 2
    "table_i0_2": (preset("exp_stable", initial=((0.5, 0.8, 1.0),
                                                 (-0.4, 0.1, -0.7))),
                   IntegratorConfig(dt=0.05, T=3.0), 2),
    # three regimes; rows die non-finite and by crossing the threshold
    "three_regimes": (three_regime_model(),
                      IntegratorConfig(dt=0.1, T=1.4, blowup_threshold=1.0),
                      1),
}


@pytest.mark.parametrize("case", sorted(STORE_CASES))
def test_store_csvs_are_the_paths_csvs(case, tmp_path):
    m, cfg, i0 = STORE_CASES[case]
    with np.errstate(over="ignore", invalid="ignore"):
        store = run_batch(m, cfg, n_paths=40, i0=i0, root_seed=1,
                          keep_paths=True).paths
    paths = [store[p] for p in range(len(store))]
    values = np.concatenate([p.values for p in paths])
    regimes = np.concatenate([p.regimes for p in paths])
    assert (values < 0).any() and len(store.node_time)
    if case == "three_regimes":
        assert set(regimes.tolist()) == {1, 2, 3}
        # a crossing ends at a state beyond the threshold, a non-finite
        # state at the last finite one
        last = [abs(p.values[-1]) for p in paths if p.exploded_at is not None]
        assert max(last) > 1.0 and min(last) <= 1.0
    else:
        assert regimes[0] == 2 and paths[0].times[0] == 0.5
    bufs = [io.StringIO() for _ in range(len(store))]
    store.write_csvs(bufs)
    for path, buf in zip(paths, bufs):
        want = io.StringIO()
        write_csv(path, want)
        assert buf.getvalue() == want.getvalue()
    # a prefix of the paths, written to files
    dests = [tmp_path / ("p%d.csv" % p) for p in range(3)]
    store.write_csvs(dests)
    for dest, buf in zip(dests, bufs):
        assert dest.read_bytes() == buf.getvalue().encode("utf-8")


def test_store_csvs_need_a_path_per_destination(tmp_path):
    m, cfg, i0 = STORE_CASES["table_i0_2"]
    store = run_batch(m, cfg, n_paths=2, i0=i0, root_seed=1,
                      keep_paths=True).paths
    dests = [tmp_path / ("p%d.csv" % p) for p in range(3)]
    with pytest.raises(IndexError):
        store.write_csvs(dests)
    assert not any(dest.exists() for dest in dests)
    store.write_csvs([])
