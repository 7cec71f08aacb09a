"""Experiment configs and the four CLI subcommands."""
from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hpsfde.cli import main
from hpsfde.config import (build_certificate, build_lyapunov, build_measure,
                           build_model, load_config, simulation_params)
from hpsfde.models import PantographTerm, PolynomialTerm, eval_drift
from hpsfde.paths import ConstantSegment


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


# ---------------------------------------------------------------------------
# config loading and builders
# ---------------------------------------------------------------------------

def test_load_config_path_and_file(tmp_path):
    path = write_config(tmp_path, {"a": 1})
    assert load_config(path) == {"a": 1}
    assert load_config(io.StringIO('{"b": 2}')) == {"b": 2}


def test_build_measure_kinds():
    atoms = build_measure({"kind": "atoms", "atoms": [[0.5, 0.5], [1.0, 0.5]]})
    assert atoms.support_range() == (0.5, 1.0)
    point = build_measure({"kind": "point", "theta": 0.8})
    assert point.support_range() == (0.8, 0.8)
    unif = build_measure({"kind": "uniform", "lo": 0.6, "hi": 1.0})
    th, w = unif.quadrature()
    assert abs(w.sum() - 1.0) < 1e-12
    dens = build_measure({"kind": "density", "edges": [0.5, 1.0],
                          "values": [2.0], "nodes": 32})
    assert dens.support_range() == (0.5, 1.0)
    with pytest.raises(ValueError):
        build_measure({"kind": "spline"})


def test_build_model_preset_branch():
    m = build_model({"model": {"preset": "exp_stable", "t0": 2.0,
                               "initial": 0.3}})
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
    f = eval_drift(m, ConstantSegment(1.0, 0.5), 1.0, 1)
    assert f == pytest.approx(-1.5)
    assert np.array_equal(m.generator.rates,
                          [[-1.0, 1.0], [2.0, -2.0]])


def test_build_model_table_initial():
    spec = dict(EXPLICIT_MODEL)
    spec["initial"] = {"times": [0.5, 1.0], "values": [0.2, 0.6]}
    m = build_model({"model": spec})
    assert float(m.initial_value(0.75)) == pytest.approx(0.4)


def test_build_model_accepts_dim_one():
    for model in (dict(EXPLICIT_MODEL, dim=1), {"preset": "exp_stable",
                                                "dim": 1}):
        assert build_model({"model": model}).n_regimes == 2


def test_build_model_rejects_other_dims():
    for model in (dict(EXPLICIT_MODEL, dim=2), {"preset": "exp_stable",
                                                "dim": 3}):
        with pytest.raises(ValueError, match='"dim"'):
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
    assert explicit.value(2.0, 0.0, 2) == pytest.approx(24.0)
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


def test_simulate_honors_output_dir_from_config(tmp_path):
    target = tmp_path / "from_config"
    spec = simulate_config(output={"moments": [2.0], "dir": str(target)})
    cfg = write_config(tmp_path, spec)
    assert main(["simulate", "--config", cfg]) == 0
    assert (target / "summary.csv").exists()


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
    assert out[2] == ("mean_integral,time_part,drift_part,diffusion_part,"
                      "coupling_part")
    mean_integral, *parts = (float(v) for v in out[3].split(","))
    assert len(parts) == 4
    assert sum(parts) == pytest.approx(mean_integral, rel=1e-12)


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
], ids=["no-theta-lower", "top-level-array", "certificate-not-object",
        "simulation-not-object", "no-generator"])
def test_malformed_config_is_an_error(tmp_path, capsys, command, text, named):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(text)
    assert main(command_argv(command, cfg, tmp_path)) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err and named in captured.err
    assert captured.out == ""


def test_negative_per_path_limit_is_an_error(tmp_path, capsys):
    spec = simulate_config(output={"moments": [2.0], "per_path": True,
                                   "per_path_limit": -1})
    cfg = write_config(tmp_path, spec)
    out = tmp_path / "runs"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "output.per_path_limit" in capsys.readouterr().err
    assert not out.exists()


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Experiment files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = load_config(io.StringIO(block))
    assert simulation_params(cfg)["n_paths"] == 10000
    assert build_model(cfg).n_regimes == 2
    assert build_lyapunov(cfg).n_regimes == 2
    assert build_certificate(cfg).beta is not None


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hpsfde", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert "certify" in proc.stdout
