"""Smoke tests of the benchmark at tiny sizes.

Run with ``python3 -m pytest bench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._load_package()

import hpsfde  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "0.1", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    record, result = _run("--workload", workload, "--seed", "3",
                          "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert record["digest"] and record["counts"]["paths"] >= 100
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_failing_check_marks_run_failed(monkeypatch, capsys):
    monkeypatch.setattr(workloads.ItoCheck, "check",
                        lambda self, out: ["forced failure"])
    assert run.main(["--workload", "ito_check", "--seed", "3", "--tiny",
                     "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = (json.loads(lines[-2])["record"],
                      json.loads(lines[-1]))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_frac"]["value"] == 1.0
    assert record["failures"][0] == ["forced failure"]


def _failing_batch(n_paths=100):
    """Paths that grow and where one explodes: every batch check fails."""
    times = np.linspace(1.0, 30.0, 30)
    values = np.exp(0.1 * times)[None, :].repeat(n_paths, axis=0)
    exploded = np.full(n_paths, np.nan)
    exploded[0] = 2.0
    return hpsfde.SimulationBatch.synthetic(times, values,
                                            exploded_at=exploded)


def test_batch_checks_reject_a_failing_result():
    batch = _failing_batch()
    sw = workloads.Switching(1, tiny=True)
    fails = sw.check({
        "batch": batch,
        "moment": hpsfde.estimate_moment_rate(batch, p=2.0, min_paths=10),
        "averages": [hpsfde.estimate_time_average(batch, p=p, min_paths=10)
                     for p in (2.0, 6.0)]})
    assert len(fails) == 4
    sf = workloads.SwitchFree(1, tiny=True)
    assert len(sf.check({"batch": batch, "moment": hpsfde.estimate_moment_rate(
        batch, p=2.0, min_paths=10)})) == 2


def test_ito_and_cli_checks_reject_a_failing_result(tmp_path):
    stat = hpsfde.ResidualStatistic(residual=1.0, stderr=0.01, z=100.0,
                                    mean_integral=0.0, t_end=1.2,
                                    n_paths_used=100, n_excluded=2)
    assert len(workloads.ItoCheck(1, tiny=True).check(
        {"residual": stat})) == 2
    cli = workloads.CliRoundtrip(1, tiny=True)
    fails = cli.check({"dir": str(tmp_path), "codes": [0, 0, 1, 0, 0],
                       "certify": ["overall: FAILS", "overall: HOLDS",
                                   "overall: HOLDS"]})
    assert len(fails) == 3


def test_no_package_source_exits_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "switching",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
