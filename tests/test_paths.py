"""Dense paths, their piecewise-linear rule, CSV export."""
from __future__ import annotations

import io

import numpy as np
import pytest

from hpsfde.paths import (ConstantSegment, DensePath, _interp, write_csv,
                          write_table)


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
