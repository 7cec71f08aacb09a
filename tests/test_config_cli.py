"""Experiment configs and the four CLI subcommands."""
from __future__ import annotations

import io
import json
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hpsfde
from hpsfde import certificates, cli, errors, lyapunov, models, paths
from hpsfde.certificates import (solve_epsilon_exponential,
                                 solve_epsilon_polynomial)
from hpsfde.cli import _parser, _write_summary, main
from hpsfde.config import (build_certificate, build_lyapunov, build_measure,
                           build_model, load_config, simulation_params)
from hpsfde.integrator import IntegratorConfig, SimulationBatch, run_batch
from hpsfde.lyapunov import (LVBreakdown, LyapunovFamily, PolynomialV,
                             sandwich_report)
from hpsfde.models import Kernel, PantographTerm, PolynomialTerm
from hpsfde.paths import ConstantSegment
from hpsfde.presets import preset, preset_certificate, preset_lyapunov

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, cfg, name="experiment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


EXPLICIT_MODEL = {
    "theta_lower": 0.5,
    "t0": 1.0,
    "generator": [[-1.0, 1.0], [2.0, -2.0]],
    "measure": {"kind": "point", "theta": 1.0},
    "kernel": {"beta": 0.5},
    "drift": [
        [{"type": "polynomial", "coeffs": [[1, -2.0]]},
         {"type": "pantograph", "coeff": 0.5, "measure": "shared",
          "kernel": True}],
        [{"type": "polynomial", "coeffs": [[1, 0.05]]}],
    ],
    "diffusion": [
        [{"type": "pantograph", "coeff": 0.2, "measure": "shared"}],
        [{"type": "polynomial", "coeffs": [[1, 0.1]]}],
    ],
    "initial": 0.5,
}


def explicit_config(part=None, i=0, j=0, **changes):
    """A simulate config of EXPLICIT_MODEL, with ``changes`` merged into
    term [i][j] of ``part``, or into the model when ``part`` is None."""
    model = json.loads(json.dumps(EXPLICIT_MODEL))
    (model if part is None else model[part][i][j]).update(changes)
    return json.dumps({"model": model,
                       "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}})


# ---------------------------------------------------------------------------
# config loading and builders
# ---------------------------------------------------------------------------

def test_load_config_path_and_file(tmp_path):
    path = write_config(tmp_path, {"estimate": {"power": 1.0}})
    assert load_config(path) == {"estimate": {"power": 1.0}}
    assert load_config(io.StringIO('{"output": {"per_path": true}}')) == {
        "output": {"per_path": True}}


def test_build_measure_kinds():
    atoms = build_measure({"kind": "atoms", "atoms": [[0.5, 0.5], [1.0, 0.5]]})
    assert atoms.support_range() == (0.5, 1.0)
    point = build_measure({"kind": "point", "theta": 0.8})
    assert point.support_range() == (0.8, 0.8)
    unif = build_measure({"kind": "uniform", "lo": 0.6, "hi": 1.0})
    th, w = unif.thetas, unif.weights
    assert abs(w.sum() - 1.0) < 1e-12
    dens = build_measure({"kind": "density", "edges": [0.5, 1.0],
                          "values": [2.0], "nodes": 32})
    assert dens.support_range() == (0.5, 1.0)
    with pytest.raises(ValueError):
        build_measure({"kind": "spline"})


def test_build_model_preset_branch():
    # t0, initial and measure are the model keys a preset leaves open
    m = build_model({"model": {"preset": "exp_stable", "t0": 2.0,
                               "initial": 0.3,
                               "measure": {"kind": "point", "theta": 0.8}}})
    assert m.t0 == 2.0
    assert m.theta_lower == 0.5
    assert float(m.initial_value(1.5)) == 0.3
    with pytest.raises(ValueError, match="unknown preset"):
        build_model({"model": {"preset": "nope"}})


def test_build_model_preset_measure_override():
    m = build_model({"model": {"preset": "exp_stable",
                               "measure": {"kind": "atoms",
                                           "atoms": [[0.6, 0.5],
                                                     [1.0, 0.5]]}}})
    pant = m.drift[0][1]
    assert isinstance(pant, PantographTerm)
    assert pant.measure.support_range() == (0.6, 1.0)


def test_build_model_explicit_branch():
    m = build_model({"model": EXPLICIT_MODEL})
    assert m.n_regimes == 2
    assert m.theta_lower == 0.5
    assert isinstance(m.drift[0][0], PolynomialTerm)
    assert isinstance(m.drift[0][1], PantographTerm)
    assert m.drift[0][1].kernel is not None
    assert m.diffusion[0][0].kernel is None
    # phi == 1 at t = t0: poly gives -2, pantograph 0.5 * exp(0) = 0.5
    f, _ = m._plan.at_segment(ConstantSegment(1.0, 0.5), 1.0, 1)
    assert f == pytest.approx(-1.5)
    assert np.array_equal(m.generator.rates,
                          [[-1.0, 1.0], [2.0, -2.0]])


def test_term_reads_its_own_kernel():
    cfg = json.loads(explicit_config("drift", 0, 1, kernel={"beta": 0.25}))
    m = build_model(cfg)
    assert m.drift[0][1].kernel == Kernel(0.25)
    assert build_model({"model": EXPLICIT_MODEL}).drift[0][1].kernel == (
        Kernel(0.5))


def test_build_model_table_initial():
    spec = dict(EXPLICIT_MODEL)
    spec["initial"] = {"times": [0.5, 1.0], "values": [0.2, 0.6]}
    m = build_model({"model": spec})
    assert float(m.initial_value(0.75)) == pytest.approx(0.4)


def test_build_model_rejects_other_dims():
    # the state is scalar, so there is no dim key to set
    for model in (dict(EXPLICIT_MODEL, dim=2), {"preset": "exp_stable",
                                                "dim": 3}):
        with pytest.raises(ValueError, match="unknown key model.dim "):
            build_model({"model": model})


def test_build_term_errors():
    spec = {k: v for k, v in EXPLICIT_MODEL.items() if k != "measure"}
    with pytest.raises(ValueError, match="shared measure"):
        build_model({"model": spec})
    bad = dict(EXPLICIT_MODEL)
    bad["drift"] = [[{"type": "fourier"}], []]
    with pytest.raises(ValueError, match="unknown term type"):
        build_model({"model": bad})


def test_build_lyapunov_fallback_and_explicit():
    fam = build_lyapunov({"model": {"preset": "poly_stable"}})
    assert fam.u0_power == 4
    explicit = build_lyapunov({
        "lyapunov": {"regimes": [[[2, 1.0]], [[2, 2.0], [4, 1.0]]],
                     "u0_power": 2, "u_powers": [2, 4]}})
    assert explicit.n_regimes == 2
    assert explicit.value(2.0, 2) == pytest.approx(24.0)
    with pytest.raises(ValueError, match="preset or regimes"):
        build_lyapunov({})


def test_build_certificate_fallback_and_explicit():
    data = build_certificate({"model": {"preset": "exp_stable", "t0": 2.0}})
    assert data.beta == 0.5
    assert data.t0 == 2.0
    explicit = build_certificate({
        "certificate": {"rows": [{"a": 2.0, "b_alpha": [[0.5, 1.0]]}],
                        "theta_lower": 0.5, "beta": 1.0}})
    assert explicit.n_families == 1
    assert explicit.rows[0].b_alpha == ((0.5, 1.0),)
    with pytest.raises(ValueError, match="preset or rows"):
        build_certificate({})


def test_simulation_params_defaults_and_validation():
    params = simulation_params({"simulation": {"dt": 0.01, "T": 5.0}})
    assert params["n_paths"] == 100
    assert params["i0"] == 1
    with pytest.raises(ValueError, match="dt and T"):
        simulation_params({"simulation": {"T": 5.0}})
    with pytest.raises(ValueError, match="dt and T"):
        simulation_params({})
    with pytest.raises(ValueError, match="simulation.n_path\\b"):
        simulation_params({"simulation": {"dt": 0.01, "T": 5.0,
                                          "n_path": 10}})


@pytest.mark.parametrize("block_size", [0, -2])
def test_simulation_params_rejects_block_size_below_one(block_size):
    spec = {"simulation": {"dt": 0.01, "T": 5.0, "block_size": block_size}}
    with pytest.raises(ValueError, match="block_size"):
        simulation_params(spec)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate_config(**overrides):
    cfg = {
        "model": {"preset": "exp_stable"},
        "simulation": {"dt": 0.05, "T": 2.0, "n_paths": 30, "root_seed": 7},
        "output": {"moments": [2.0, 4.0]},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def test_simulate_writes_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_config())
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "time,occ_1,occ_2,moment_2,moment_4"
    assert len(lines) == 22  # header + 21 grid points on [1, 2] at dt 0.05
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0
    assert first[1] + first[2] == pytest.approx(1.0)
    assert first[3] == pytest.approx(0.25)  # initial value 0.5 squared
    assert "simulated 30 paths" in capsys.readouterr().out


def test_summary_when_every_path_exploded(tmp_path, capsys):
    # every path crosses the threshold in its first step
    cfg = write_config(tmp_path, simulate_config(simulation={
        "dt": 0.05, "T": 2.0, "n_paths": 4, "blowup_threshold": 0.1}))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "time,occ_1,occ_2,moment_2,moment_4"
    assert len(lines) == 22
    assert all(line.split(",")[3:] == ["nan", "nan"] for line in lines[1:])
    assert "simulated 4 paths (4 exploded)" in capsys.readouterr().out


def test_summary_bytes_same_for_path_and_stream(tmp_path):
    batch = run_batch(preset("exp_stable"), IntegratorConfig(dt=0.1, T=2.0),
                      n_paths=5, i0=1, root_seed=2, keep_paths=False)
    buf = io.StringIO()
    _write_summary(batch, [2.0, 4.0], buf)
    dest = tmp_path / "summary.csv"
    _write_summary(batch, [2.0, 4.0], str(dest))
    assert dest.read_bytes() == buf.getvalue().encode("utf-8")
    assert buf.getvalue().startswith("time,occ_1,occ_2,moment_2,moment_4\n")


def test_simulate_dumps_per_path_files(tmp_path):
    spec = simulate_config(output={"moments": [2.0], "per_path": True,
                                   "per_path_limit": 3})
    cfg = write_config(tmp_path, spec)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    files = sorted((out / "paths").iterdir())
    assert [f.name for f in files] == ["path_00000.csv", "path_00001.csv",
                                       "path_00002.csv"]
    header = files[0].read_text().splitlines()[0]
    assert header == "time,regime,x_1"


def test_simulate_path_files_are_the_batch_paths(tmp_path):
    # most paths explode, most after a switch; the files must hold the
    # bytes that write_csv gives the same batch's paths
    spec = {"model": {"preset": "exp_stable", "initial": 2.5},
            "simulation": {"dt": 0.01, "T": 3.0, "n_paths": 60,
                           "root_seed": 3},
            "output": {"per_path": True, "per_path_limit": 45}}
    cfg = write_config(tmp_path, spec)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    batch = run_batch(preset("exp_stable", initial=2.5),
                      IntegratorConfig(dt=0.01, T=3.0), n_paths=60, i0=1,
                      root_seed=3, keep_paths=True)
    kept = slice(45)
    assert 0 < batch.exploded_mask[kept].sum() < 45
    assert (batch.n_switches[kept] > 0).sum() > 40
    files = sorted((out / "paths").iterdir())
    assert [f.name for f in files] == ["path_%05d.csv" % p
                                       for p in range(45)]
    for p, name in enumerate(files):
        want = io.StringIO()
        paths.write_csv(batch.paths[p], want)
        assert name.read_bytes() == want.getvalue().encode("utf-8")


def test_simulate_outputs_identical_across_workers(tmp_path):
    # partition invariance: the same files at every block size
    outs = []
    for block_size in (1, 3, 40):
        spec = simulate_config(
            simulation={"dt": 0.05, "T": 2.0, "n_paths": 40, "root_seed": 7,
                        "block_size": block_size},
            output={"moments": [2.0], "per_path": True, "per_path_limit": 5})
        cfg = write_config(tmp_path, spec, "b%d.json" % block_size)
        out = tmp_path / ("b%d" % block_size)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    out1, *others = outs
    for other in others:
        assert (out1 / "summary.csv").read_bytes() == \
            (other / "summary.csv").read_bytes()
        for p in range(5):
            name = "paths/path_%05d.csv" % p
            assert (out1 / name).read_bytes() == (other / name).read_bytes()


# ---------------------------------------------------------------------------
# check-ito
# ---------------------------------------------------------------------------

def test_check_ito_reports_residual(tmp_path, capsys):
    spec = {
        "model": {"preset": "exp_stable"},
        "simulation": {"dt": 0.005, "T": 2.0, "n_paths": 120,
                       "root_seed": 3},
        "lyapunov": {"t_end": 2.0},
    }
    cfg = write_config(tmp_path, spec)
    assert main(["check-ito", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "preset,t_end,residual,stderr,z"
    fields = out[1].split(",")
    assert fields[0] == "exp_stable"
    assert float(fields[1]) == 2.0
    assert abs(float(fields[4])) < 5.0
    assert out[2] == "mean_integral,drift_part,diffusion_part,coupling_part"
    mean_integral, *parts = (float(v) for v in out[3].split(","))
    assert len(parts) == 3
    assert sum(parts) == pytest.approx(mean_integral, rel=1e-12)
    # then the parts by the regime of each interval's left node
    assert out[4] == "regime,drift_part,diffusion_part,coupling_part"
    assert [line.split(",")[0] for line in out[5:]] == ["1", "2"]
    by_regime = [[float(v) for v in line.split(",")[1:]] for line in out[5:]]
    for part, column in zip(parts, zip(*by_regime)):
        assert sum(column) == pytest.approx(part, rel=1e-12)


def test_check_ito_builds_no_dense_path(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a DensePath was built")

    monkeypatch.setattr(paths, "DensePath", refuse)
    cfg = write_config(tmp_path, {
        "model": {"preset": "switch_stabilized"},
        "simulation": {"dt": 0.01, "T": 2.0, "n_paths": 100,
                       "root_seed": 3}})
    assert main(["check-ito", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7


@pytest.mark.parametrize("model", [
    dict(EXPLICIT_MODEL, preset=None),
    EXPLICIT_MODEL,
], ids=["preset-null", "preset-absent"])
def test_check_ito_names_an_explicit_model_custom(tmp_path, capsys, model):
    cfg = write_config(tmp_path, {
        "model": model,
        "simulation": {"dt": 0.05, "T": 2.0, "n_paths": 100},
        "lyapunov": {"regimes": [[[2, 1.0]], [[2, 1.0]]], "u0_power": 2,
                     "u_powers": [2]}})
    assert main(["check-ito", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("custom,")


@pytest.mark.parametrize("t_end", [5.0, 0.5, 1.0])
def test_check_ito_rejects_t_end_outside_horizon_before_simulating(
        tmp_path, capsys, monkeypatch, t_end):
    def no_simulation(*args, **kwargs):
        raise AssertionError("check-ito simulated before checking t_end")

    monkeypatch.setattr(cli, "run_batch", no_simulation)
    cfg = write_config(tmp_path, {
        "model": {"preset": "exp_stable"},
        "simulation": {"dt": 0.05, "T": 2.0, "n_paths": 120},
        "lyapunov": {"t_end": t_end}})
    assert main(["check-ito", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert ("error: lyapunov.t_end must lie in (t0, T] = (1, 2], got %r"
            % t_end) in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_preset_holds(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"preset": "exp_stable"}})
    assert main(["certify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "== existence ==" in out
    assert "== exponential rate ==" in out
    assert "== time averages ==" in out
    assert "overall: HOLDS" in out


def test_certify_poly_preset_uses_polynomial_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"preset": "poly_stable"}})
    assert main(["certify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "== polynomial rate ==" in out
    assert "== exponential rate ==" not in out
    assert "overall: HOLDS" in out


def test_certify_candidate_epsilon(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"preset": "exp_stable"},
        "certificate": {"epsilon": 0.05}})
    assert main(["certify", "--config", cfg]) == 0
    assert "epsilon = 0.05" in capsys.readouterr().out


def test_certify_failing_table_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "certificate": {"rows": [{"a": 0.5, "b_alpha": [[1.0, 0.5]]}],
                        "theta_lower": 0.5,
                        "checks": ["existence"]}})
    assert main(["certify", "--config", cfg]) == 1
    assert "overall: FAILS" in capsys.readouterr().out


def test_certify_time_average_without_a_bound_fails(tmp_path, capsys):
    # a_1 = 0.5 < 1.5 = sum b (alpha + (1 - alpha) / theta_lower)
    cfg = write_config(tmp_path, {
        "certificate": {"rows": [{"a": 0.5, "b_alpha": [[1.0, 0.5]]}],
                        "theta_lower": 0.5, "a0": 1.0,
                        "checks": ["time-average"]}})
    assert main(["certify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "k=1: time-average denominator for k=1 is -1\n" in out
    assert "== time averages ==" in out and "verdict: FAILS" in out
    assert "overall: FAILS" in out


def test_certify_not_applicable_check_fails(tmp_path, capsys):
    # requesting the exponential check on a kernel-free table
    cfg = write_config(tmp_path, {
        "model": {"preset": "poly_stable"},
        "certificate": {"checks": ["exponential"]}})
    assert main(["certify", "--config", cfg]) == 1
    assert "not applicable" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_literals_are_rejected(tmp_path, capsys, command,
                                                literal):
    # Python's json module accepts these literals; JSON has no such numbers
    text = ('{"model": {"preset": "exp_stable", "initial": %s}, '
            '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}' % literal)
    cfg = tmp_path / "experiment.json"
    cfg.write_text(text)
    with pytest.raises(ValueError, match=literal):
        load_config(str(cfg))
    assert main([command, "--config", str(cfg)]) == 2
    assert literal in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    '{"a": 1e999, "b_alpha": [[1.0, 0.5]]}',
    '{"a": 2.0, "b_alpha": [[-1e999, 0.5]]}',
])
def test_certify_rejects_non_finite_table(tmp_path, capsys, row):
    # 1e999 is valid JSON and parses to inf; an infinite a_1 would
    # certify epsilon = beta
    cfg = tmp_path / "experiment.json"
    cfg.write_text('{"certificate": {"rows": [%s], "theta_lower": 0.5, '
                   '"beta": 0.5, "checks": ["exponential", '
                   '"time-average"]}}' % row)
    assert main(["certify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert "overall" not in captured.out


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def estimate_config(tmp_path, **sim_overrides):
    sim = {"dt": 0.05, "T": 6.0, "n_paths": 120, "root_seed": 5}
    sim.update(sim_overrides)
    return write_config(tmp_path, {
        "model": {"preset": "exp_stable"},
        "simulation": sim,
        "estimate": {"power": 2.0},
    })


def test_estimate_writes_report(tmp_path, capsys):
    cfg = estimate_config(tmp_path)
    report = tmp_path / "report.csv"
    assert main(["estimate", "--config", cfg, "--kind", "moment",
                 "--out", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("t,statistic\n")
    assert "# kind,moment-exponential" in text
    console = capsys.readouterr().out
    assert "kind=moment-exponential" in console
    assert "fitted_rate=-" in console  # decaying preset


def test_estimate_kind_avg(tmp_path, capsys):
    cfg = estimate_config(tmp_path)
    report = tmp_path / "avg.csv"
    assert main(["estimate", "--config", cfg, "--kind", "avg",
                 "--out", str(report)]) == 0
    assert "# kind,time-average" in report.read_text()


def test_estimate_poly_short_horizon_is_an_error(tmp_path, capsys):
    cfg = estimate_config(tmp_path)
    report = tmp_path / "poly.csv"
    rc = main(["estimate", "--config", cfg, "--kind", "poly",
               "--out", str(report)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_missing_simulation_section_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"preset": "exp_stable"}})
    rc = main(["estimate", "--config", cfg, "--kind", "moment",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "dt and T" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    rc = main(["certify", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# removed options and malformed configs
# ---------------------------------------------------------------------------

SIMULATING = ("simulate", "check-ito", "estimate")


def command_argv(command, cfg, tmp_path):
    extra = {"simulate": ["--out", str(tmp_path / "runs")],
             "check-ito": [],
             "certify": [],
             "estimate": ["--kind", "moment",
                          "--out", str(tmp_path / "out.csv")]}
    return [command, "--config", str(cfg)] + extra[command]


@pytest.mark.parametrize("command", SIMULATING)
def test_workers_flag_is_gone(tmp_path, capsys, command):
    cfg = write_config(tmp_path, simulate_config())
    with pytest.raises(SystemExit) as exc:
        main(command_argv(command, cfg, tmp_path) + ["--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", SIMULATING)
@pytest.mark.parametrize("key", ["workers", "keep_paths", "blowup_treshold"])
def test_unread_simulation_key_is_an_error(tmp_path, capsys, command, key):
    sim = {"dt": 0.05, "T": 2.0, "n_paths": 4, key: 1}
    cfg = write_config(tmp_path, simulate_config(simulation=sim))
    assert main(command_argv(command, cfg, tmp_path)) == 2
    captured = capsys.readouterr()
    assert "error: unknown key simulation.%s " % key in captured.err
    assert captured.out == ""
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, override, flags, named", [
    ("simulate", {"output": {"dir": "elsewhere"}}, [],
     "error: unknown key output.dir "),
    ("certify", {"certificate": {"u0_power": 2}}, [],
     "error: unknown key certificate.u0_power "),
    ("certify", {"certificate": {"moment_powers": [2, 6]}}, [],
     "error: unknown key certificate.moment_powers "),
    ("estimate", {}, ["--power", "2"], "unrecognized arguments: --power 2"),
    ("simulate", {"model": {"preset": "exp_stable", "dim": 1}}, [],
     "error: unknown key model.dim "),
    ("check-ito", {"lyapunov": {"strict": True}}, [],
     "error: unknown key lyapunov.strict "),
], ids=["output-dir", "u0-power", "moment-powers", "power-flag", "model-dim",
        "lyapunov-strict"])
def test_removed_input_is_an_error(tmp_path, capsys, monkeypatch, command,
                                   override, flags, named):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, simulate_config(**override))
    try:
        rc = main(command_argv(command, cfg, tmp_path) + flags)
    except SystemExit as exc:  # argparse rejects a flag this way
        rc = exc.code
    assert rc == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert [f.name for f in tmp_path.iterdir()] == ["experiment.json"]


@pytest.mark.parametrize("call, keyword", [
    (lambda: solve_epsilon_exponential(preset_certificate("exp_stable"),
                                       delta=1e-9), "delta"),
    (lambda: solve_epsilon_polynomial(preset_certificate("poly_stable"),
                                      delta=1e-9), "delta"),
    (lambda: solve_epsilon_polynomial(preset_certificate("poly_stable"),
                                      tol=1e-10), "tol"),
    (lambda: sandwich_report(preset_lyapunov("exp_stable"),
                             x_grid=np.array([1.0])), "x_grid"),
    (lambda: sandwich_report(preset_lyapunov("exp_stable"),
                             t_grid=(0.0,)), "t_grid"),
    (lambda: Kernel(beta=1.0, lambda_at=lambda th, u: 1.0), "lambda_at"),
    (lambda: Kernel(beta=1.0, log_decay=lambda th, t: t), "log_decay"),
    (lambda: LyapunovFamily(regimes=(PolynomialV([(2, 1.0)]),), u0_power=2,
                            u_powers=(2,), strict=True), "strict"),
    (lambda: replace(preset_certificate("exp_stable"), u0_power=2),
     "u0_power"),
    (lambda: replace(preset_certificate("exp_stable"), moment_powers=(2, 6)),
     "moment_powers"),
    (lambda: PolynomialV([(2, 1.0)], time_weight=(abs, abs)), "time_weight"),
    (lambda: LVBreakdown(value=0.0, time_part=0.0, drift_part=0.0,
                         diffusion_part=0.0, coupling_part=0.0), "time_part"),
    (lambda: SimulationBatch.synthetic(np.linspace(0.0, 1.0, 3),
                                       np.ones((2, 3)), t0=1.0), "t0"),
], ids=["exponential-delta", "polynomial-delta", "polynomial-tol",
        "sandwich-x_grid", "sandwich-t_grid", "kernel-lambda_at",
        "kernel-log_decay", "family-strict", "certificate-u0_power",
        "certificate-moment_powers", "v-time_weight", "breakdown-time_part",
        "synthetic-t0"])
def test_removed_keyword_argument_is_a_type_error(call, keyword):
    with pytest.raises(TypeError, match="unexpected keyword argument '%s'"
                       % keyword):
        call()


@pytest.mark.parametrize("owners, name", [
    ((hpsfde, paths), "sup_norm"),
    ((hpsfde, paths), "FunctionSegment"),
    ((hpsfde, models), "validate_local_lipschitz_probe"),
    ((hpsfde, models), "LipschitzProbeReport"),
    ((hpsfde.Measure,), "with_nodes"),
    ((hpsfde.Kernel,), "rate"),
    ((hpsfde.Kernel,), "validate"),
    ((hpsfde, certificates), "require"),
    ((errors,), "Infeasible"),
    ((hpsfde.GeneratorMatrix,), "exit_rate"),
    ((hpsfde.Kernel,), "linear"),
    ((hpsfde.PolynomialV,), "dt"),
    ((hpsfde.LyapunovFamily,), "dt"),
    ((hpsfde.LyapunovFamily,), "u0"),
    ((hpsfde.LyapunovFamily,), "u"),
    ((hpsfde, paths), "eval"),
    ((hpsfde, paths), "segment"),
    ((hpsfde, paths), "SegmentView"),
    ((hpsfde, models), "eval_drift"),
    ((hpsfde, models), "eval_diffusion"),
    ((models,), "coefficients"),
    ((models,), "_one_row"),
    ((errors,), "PathExploded"),
    ((errors, models), "QuadratureUnsupported"),
    ((lyapunov,), "_lv_parts"),
    ((hpsfde.PolynomialV,), "_derivative"),
    ((hpsfde.PantographTerm,), "_kernel_key"),
    ((models,), "_cached"),
    ((hpsfde.Measure,), "quadrature"),
    ((hpsfde.GeneratorMatrix,), "jump_table"),
    ((hpsfde.PantographTerm,), "_thetas"),
    ((hpsfde.PantographTerm,), "_weights"),
    ((hpsfde, models), "CustomTerm"),
    ((preset("exp_stable")._plan.compiled((1,)),), "_raw"),
    ((models,), "_Pass"),
], ids=["sup_norm", "FunctionSegment", "validate_local_lipschitz_probe",
        "LipschitzProbeReport", "Measure.with_nodes", "Kernel.rate",
        "Kernel.validate", "require", "Infeasible",
        "GeneratorMatrix.exit_rate", "Kernel.linear", "PolynomialV.dt",
        "LyapunovFamily.dt", "LyapunovFamily.u0", "LyapunovFamily.u",
        "eval", "segment", "SegmentView", "eval_drift", "eval_diffusion",
        "coefficients", "_one_row", "PathExploded", "QuadratureUnsupported",
        "_lv_parts", "PolynomialV._derivative", "_kernel_key", "_cached",
        "Measure.quadrature", "GeneratorMatrix.jump_table",
        "PantographTerm._thetas", "PantographTerm._weights", "CustomTerm",
        "_Plan.compiled._raw", "_Pass"])
def test_removed_name_is_gone(owners, name):
    for owner in owners:
        with pytest.raises(AttributeError):
            getattr(owner, name)
    if owners[0] is hpsfde:
        with pytest.raises(ImportError):
            exec("from hpsfde import %s" % name, {})


def test_package_exports_resolve():
    names = hpsfde.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hpsfde, name), name
    namespace = {}
    exec("from hpsfde import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("command, text, named", [
    ("certify",
     '{"certificate": {"rows": [{"a": 2.0, "b_alpha": [[1.0, 0.5]]}]}}',
     "certificate.theta_lower is required"),
    ("certify", '[{"model": {"preset": "exp_stable"}}]',
     "top level of an experiment file must be a JSON object"),
    ("certify", '{"certificate": ["exp_stable"]}',
     "section 'certificate' must be a JSON object"),
    ("simulate", '{"simulation": [0.1, 2.0]}',
     "section 'simulation' must be a JSON object"),
    ("simulate",
     json.dumps({"model": {k: v for k, v in EXPLICIT_MODEL.items()
                           if k != "generator"},
                 "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}),
     "model.generator is required"),
    # a key that nothing reads, in each section but simulation
    ("simulate", '{"output": {"per_paths": true}}',
     "unknown key output.per_paths "),
    ("check-ito", '{"lyapunov": {"t_ned": 2.0}}',
     "unknown key lyapunov.t_ned "),
    ("certify", '{"certificate": {"epsilom": 0.1}}',
     "unknown key certificate.epsilom "),
    ("estimate", '{"estimate": {"powr": 2.0}}', "unknown key estimate.powr "),
    ("certify", '{"model": {"preset": "exp_stable", "thetalower": 0.5}}',
     "unknown key model.thetalower "),
    # a top-level key that is not a section
    ("simulate", '{"ouput": {"per_path": true}, "model": {"preset": '
     '"exp_stable"}, "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "unknown section ouput "),
    # a check that certify cannot run, rejected before any verdict
    ("certify", '{"model": {"preset": "exp_stable"}, '
     '"certificate": {"checks": ["existence", "bogus"]}}',
     "certificate.checks[1] must be one of existence, exponential, "
     "polynomial, time-average, got 'bogus'"),
    ("certify", '{"model": {"preset": "exp_stable"}, '
     '"certificate": {"checks": []}}',
     "certificate.checks must name at least one check"),
    # a candidate rate that no check run reads
    ("certify", '{"model": {"preset": "poly_stable"}, '
     '"certificate": {"epsilon": 0.05}}',
     "certificate.epsilon is read only by the exponential check"),
    ("certify", '{"model": {"preset": "exp_stable"}, '
     '"certificate": {"epsilon": 0.05, "checks": ["polynomial"]}}',
     "certificate.epsilon is read only by the exponential check"),
    ("certify", '{"model": {"preset": "exp_stable"}, "certificate": '
     '{"epsilon": 0.05, "checks": ["existence", "time-average"]}}',
     "certificate.epsilon is read only by the exponential check"),
    # a nested value of the wrong JSON type
    ("simulate", '{"model": {"preset": "exp_stable", "measure": 3}}',
     "model.measure must be a JSON object, got 3"),
    ("simulate", '{"model": {"preset": "exp_stable", "initial": {"times": 3}}, '
     '"simulation": {"dt": 0.1, "T": 2.0}}',
     "model.initial.times must be a JSON array, got 3"),
    ("certify", '{"certificate": {"rows": [3], "theta_lower": 0.5}}',
     "certificate.rows[0] must be a JSON object, got 3"),
    ("simulate",
     json.dumps({"model": dict(EXPLICIT_MODEL, drift=[[3], []]),
                 "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}),
     "model.drift[0][0] must be a JSON object, got 3"),
    ("check-ito", '{"model": {"preset": "exp_stable"}, '
     '"lyapunov": {"regimes": 3}}',
     "lyapunov.regimes must be a JSON array, got 3"),
    # a nested scalar of the wrong JSON type
    ("simulate",
     json.dumps({"model": dict(EXPLICIT_MODEL, drift=[
         [{"type": "pantograph", "coeff": None}], []]),
                 "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}),
     "model.drift[0][0].coeff must be a JSON number, got None"),
    ("simulate",
     json.dumps({"model": dict(EXPLICIT_MODEL,
                               generator=[["-1", 1.0], [2.0, -2.0]]),
                 "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}),
     "model.generator[0][0] must be a JSON number, got '-1'"),
    ("simulate", '{"model": {"preset": "exp_stable", "measure": '
     '{"kind": "uniform", "lo": 0.5, "hi": 1.0, "nodes": 8.5}}, '
     '"simulation": {"dt": 0.1, "T": 2.0}}',
     "measure.nodes must be a JSON integer, got 8.5"),
    ("check-ito", '{"model": {"preset": "exp_stable"}, "lyapunov": '
     '{"regimes": [[[2.5, 1.0]], [[2, 1.0]]], "u0_power": 2, '
     '"u_powers": [2]}, "simulation": {"dt": 0.1, "T": 2.0}}',
     "lyapunov.regimes[0][0][0] must be a JSON integer, got 2.5"),
    ("certify", '{"certificate": {"preset": "exp_stable", "beta": true}}',
     "certificate.beta must be a JSON number or null, got True"),
    # 1e999 is valid JSON and parses to inf
    ("check-ito", '{"model": {"preset": "exp_stable"}, "lyapunov": '
     '{"regimes": [[[2, 1e999]], [[2, 1.0]]], "u0_power": 2, '
     '"u_powers": [2]}, "simulation": {"dt": 0.1, "T": 2.0}}',
     "lyapunov.regimes[0][0][1] must be finite, got inf"),
    ("simulate", '{"model": {"theta_lower": 0.5, "generator": [[0.0]], '
     '"drift": [[{"type": "pantograph", "coeff": 1e999, "measure": '
     '{"kind": "point", "theta": 1.0}}]], "diffusion": [[]]}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "model.drift[0][0].coeff must be finite, got inf"),
    ("simulate", '{"model": {"preset": "exp_stable"}, "simulation": '
     '{"dt": 1%s, "T": 2.0, "n_paths": 2}}' % ("0" * 400),
     "simulation.dt must be finite, got inf"),
    # an initial table that does not describe a segment on [0.5, 1]
    ("simulate", '{"model": {"preset": "exp_stable", "initial": '
     '{"times": [1.0, 0.5], "values": [1.0, 3.0]}}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "initial table: times must be finite and strictly increasing"),
    ("simulate", '{"model": {"preset": "exp_stable", "initial": '
     '{"times": [0.5, 1.0], "values": [1.0]}}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "initial table: times and values must be flat and of equal length"),
    ("simulate", explicit_config("drift", 0, 0, coeffs=[[1, -2.0], [3]]),
     "model.drift[0][0].coeffs must hold [x, y] pairs, got [3]"),
    # a key that nothing reads, in each object nested in a section
    ("simulate", '{"model": {"preset": "exp_stable", "measure": '
     '{"kind": "uniform", "lo": 0.5, "hi": 1.0, "nodez": 8}}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "unknown key model.measure.nodez (known: kind, lo, hi, nodes)"),
    ("simulate", '{"model": {"preset": "exp_stable", "measure": '
     '{"atoms": [[1.0, 1.0]], "weights": [1.0]}}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "unknown key model.measure.weights (known: kind, atoms)"),
    ("simulate", explicit_config("drift", 0, 1, measure={
        "kind": "point", "thetaa": 1.0}),
     "unknown key model.drift[0][1].measure.thetaa (known: kind, theta)"),
    ("simulate", explicit_config("diffusion", 0, 0, measure={
        "kind": "density", "edges": [0.5, 1.0], "values": [2.0],
        "node": 8}),
     "unknown key model.diffusion[0][0].measure.node "
     "(known: kind, edges, values, nodes)"),
    ("simulate", explicit_config(kernel={"betta": 0.5}),
     "unknown key model.kernel.betta (known: beta)"),
    ("simulate", explicit_config("drift", 0, 1, kernel={"beta": 0.5,
                                                        "rate": 1.0}),
     "unknown key model.drift[0][1].kernel.rate (known: beta)"),
    ("simulate", explicit_config("drift", 0, 0, coef=3),
     "unknown key model.drift[0][0].coef (known: type, coeffs)"),
    ("simulate", explicit_config("drift", 0, 1, point_exponant=2.0),
     "unknown key model.drift[0][1].point_exponant (known: type, coeff, "
     "measure, kernel, point_exponent, delay_exponent, signed)"),
    ("simulate", explicit_config(initial={
        "times": [0.5, 1.0], "values": [1.0, 1.0], "value": 1.0}),
     "unknown key model.initial.value (known: times, values)"),
    ("certify", '{"certificate": {"rows": [{"a": 2.0, "b_alpha": '
     '[[1.0, 0.5]], "bb": 1.0}], "theta_lower": 0.5}}',
     "unknown key certificate.rows[0].bb (known: a, b_alpha)"),
    # a model key that the preset sets, for every command
    ("certify", '{"model": {"preset": "exp_stable", "theta_lower": 0.9}}',
     "model.theta_lower is set by model.preset 'exp_stable'"),
    ("certify", '{"model": {"preset": "exp_stable", "generator": [[0.0]]}}',
     "model.generator is set by model.preset 'exp_stable'"),
    ("check-ito", '{"model": {"preset": "switch_stabilized", "kernel": '
     '{"beta": 9.0}}, "simulation": {"dt": 0.1, "T": 2.0, "n_paths": 20}}',
     "model.kernel is set by model.preset 'switch_stabilized'"),
    ("simulate", '{"model": {"preset": "poly_stable", "drift": [[], []]}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 2}}',
     "model.drift is set by model.preset 'poly_stable'"),
    ("estimate", '{"model": {"preset": "exp_stable", "diffusion": [[], []]}, '
     '"simulation": {"dt": 0.1, "T": 2.0, "n_paths": 20}}',
     "model.diffusion is set by model.preset 'exp_stable'"),
    # a simulation count, regime or seed out of range
    ("simulate", '{"model": {"preset": "exp_stable"}, "simulation": '
     '{"dt": 0.1, "T": 2.0, "n_paths": 0}}',
     "simulation.n_paths must be an integer >= 1, got 0"),
    ("simulate", '{"model": {"preset": "exp_stable"}, "simulation": '
     '{"dt": 0.1, "T": 2.0, "n_paths": 2, "i0": 3}}',
     "simulation.i0 must be an integer in 1..2, got 3"),
    ("simulate", '{"model": {"preset": "exp_stable"}, "simulation": '
     '{"dt": 0.1, "T": 2.0, "n_paths": 2, "root_seed": -1}}',
     "simulation.root_seed must be an integer >= 0, got -1"),
    ("simulate", '{"model": {"preset": "exp_stable"}, "simulation": '
     '{"dt": 0.1, "T": 2.0, "n_paths": 2, "block_size": 0}}',
     "simulation.block_size must be an integer >= 1, got 0"),
], ids=["no-theta-lower", "top-level-array", "certificate-not-object",
        "simulation-not-object", "no-generator", "output-key", "lyapunov-key",
        "certificate-key", "estimate-key", "model-key", "unknown-section",
        "unknown-check", "no-checks", "epsilon-poly-default",
        "epsilon-exp-polynomial", "epsilon-exp-no-rate", "measure-number",
        "initial-times-number", "certificate-row-number", "term-number",
        "regimes-number", "coeff-null", "generator-string",
        "nodes-fraction", "power-fraction", "beta-bool", "v-coeff-infinite",
        "term-coeff-infinite", "dt-past-float-range",
        "initial-times-decreasing", "initial-lengths", "coeffs-not-pair",
        "model-measure-key", "model-atoms-key", "term-point-key",
        "term-density-key", "model-kernel-key", "term-kernel-key",
        "polynomial-term-key", "pantograph-term-key", "initial-key",
        "certificate-row-key", "preset-theta-lower", "preset-generator",
        "preset-kernel", "preset-drift", "preset-diffusion",
        "n-paths-zero", "i0-past-regimes", "root-seed-negative",
        "block-size-zero"])
def test_malformed_config_is_an_error(tmp_path, capsys, command, text, named):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(text)
    assert main(command_argv(command, cfg, tmp_path)) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("section, spec, named", [
    ("simulation", {"dt": [0.1], "T": 2.0},
     "simulation.dt must be a JSON number, got [0.1]"),
    ("output", {"moments": ["two"]},
     "output.moments[0] must be a JSON number, got 'two'"),
    ("simulation", {"dt": 0.1, "T": "2.0"},
     "simulation.T must be a JSON number, got '2.0'"),
    ("simulation", {"dt": 0.1, "T": 2.0, "n_paths": 2.5},
     "simulation.n_paths must be a JSON integer, got 2.5"),
    ("simulation", {"dt": 0.1, "T": 2.0, "n_paths": True},
     "simulation.n_paths must be a JSON integer, got True"),
], ids=["dt-array", "moment-string", "T-string", "n_paths-fraction",
        "n_paths-bool"])
def test_scalar_of_wrong_json_type_is_an_error(tmp_path, capsys, section,
                                               spec, named):
    cfg = write_config(tmp_path, simulate_config(**{section: spec}))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: %s" % named in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_integral_float_counts_are_accepted():
    params = simulation_params({"simulation": {
        "dt": 1, "T": 5.0, "n_paths": 3.0, "block_size": 2e3}})
    assert params["n_paths"] == 3 and isinstance(params["n_paths"], int)
    assert params["block_size"] == 2000
    assert params["dt"] == 1.0 and isinstance(params["dt"], float)


@pytest.mark.parametrize("output", [
    {"per_path_limit": 3},
    {"per_path": False, "per_path_limit": 0},
], ids=["no-per-path", "per-path-false"])
def test_per_path_limit_without_per_path_is_an_error(tmp_path, capsys,
                                                     monkeypatch, output):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate ran before checking per_path_limit")

    monkeypatch.setattr(cli, "run_batch", no_simulation)
    cfg = write_config(tmp_path, simulate_config(output=output))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: output.per_path_limit " in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_negative_per_path_limit_is_an_error(tmp_path, capsys):
    spec = simulate_config(output={"moments": [2.0], "per_path": True,
                                   "per_path_limit": -1})
    cfg = write_config(tmp_path, spec)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "output.per_path_limit" in capsys.readouterr().err
    assert not out.exists()


def test_readme_example_config_loads():
    readme = README.read_text()
    section = readme.split("### Experiment files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = load_config(io.StringIO(block))
    assert simulation_params(cfg)["n_paths"] == 10000
    assert build_model(cfg).n_regimes == 2
    assert build_lyapunov(cfg).n_regimes == 2
    assert build_certificate(cfg).beta is not None


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)
             for line in block.splitlines() if line.startswith("hpsfde ")]
    assert [argv[1] for argv in lines] == ["simulate", "check-ito",
                                           "certify", "estimate"]
    for argv in lines:
        args = _parser().parse_args(argv[1:])
        assert args.config == "exp.json"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hpsfde", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert "certify" in proc.stdout


@pytest.mark.parametrize("command, section, key, bad", [
    ("simulate", "output", "moments", [2.0, -2.0]),
    ("simulate", "output", "moments", [0.0]),
    ("estimate", "estimate", "power", -2.0),
    ("estimate", "estimate", "power", 0)])
def test_a_bad_power_is_rejected_before_simulating(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   section, key, bad):
    def no_simulation(*args, **kwargs):
        raise AssertionError("%s simulated before checking the power"
                             % command)

    monkeypatch.setattr(cli, "run_batch", no_simulation)
    cfg = write_config(tmp_path, {
        "model": {"preset": "exp_stable"},
        "simulation": {"dt": 0.05, "T": 2.0, "n_paths": 120},
        section: {key: bad}})
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv + (["--kind", "moment"] if command == "estimate"
                        else [])) == 2
    captured = capsys.readouterr()
    name = ("output.moments[%d]" % (len(bad) - 1) if key == "moments"
            else "estimate.power")
    value = float(bad[-1] if key == "moments" else bad)
    assert captured.err == "error: %s must be finite and > 0, got %r\n" % (
        name, value)
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
