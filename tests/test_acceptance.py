"""End-to-end checks pinning the toolkit's headline numbers.

Each test prints one PASS/FAIL scoreboard line (bypassing capture) so a
full run leaves a compact summary in the log.  Heavy Monte Carlo batches
are shared through module fixtures; the whole file runs in a couple of
minutes.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from hpsfde import (IntegratorConfig, certify_epsilon_exponential,
                    estimate_as_rate, estimate_moment_rate,
                    estimate_polynomial_rate, estimate_time_average,
                    existence_margins, make_generator, martingale_residual,
                    polynomial_margins, preset, preset_certificate,
                    preset_lyapunov, run_batch, sample_regime_path,
                    single_regime, solve_epsilon_exponential,
                    solve_epsilon_polynomial)
from hpsfde.cli import main

PRESETS = ("exp_stable", "switch_stabilized", "poly_stable")


def verdict(capsys, num, label, ok, detail):
    line = "criterion %02d %-22s %s  [%s]" % (
        num, label, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def exp_long_batch():
    """exp_stable, 2000 paths on [1, 30]; shared by criteria 5 and 7."""
    start = time.perf_counter()
    batch = run_batch(preset("exp_stable"), IntegratorConfig(dt=0.01, T=30.0),
                      n_paths=2000, i0=1, root_seed=101, keep_paths=False)
    return batch, time.perf_counter() - start


def test_criterion_01_certificate_rates(capsys):
    exp_c = preset_certificate("exp_stable")
    sw_c = preset_certificate("switch_stabilized")
    po_c = preset_certificate("poly_stable")
    start = time.perf_counter()
    v_exp = certify_epsilon_exponential(exp_c, 0.05)
    s_exp = solve_epsilon_exponential(exp_c)
    v_sw = certify_epsilon_exponential(sw_c, 0.1)
    s_sw = solve_epsilon_exponential(sw_c)
    s_po = solve_epsilon_polynomial(po_c)
    elapsed = time.perf_counter() - start
    # independent check on the polynomial rate: walk a 1e-4 grid upward
    # until the margins first turn positive
    eps_scan = 0.0
    while eps_scan < 5.0 and all(
            m <= 0.0 for m in polynomial_margins(po_c, eps_scan + 1e-4)):
        eps_scan += 1e-4
    ok = (v_exp.holds and abs(s_exp.epsilon_sup - 0.14) < 1e-9
          and v_sw.holds and abs(s_sw.epsilon_sup - 0.2114) < 1e-3
          and s_po.holds and abs(s_po.epsilon_sup - eps_scan) < 1e-3
          and elapsed < 1.0)
    verdict(capsys, 1, "certificate-rates", ok,
            "exp 0.05 ok sup %.4f; switch 0.1 ok sup %.4f; poly sup %.6f "
            "scan %.6f; %.2fs" % (s_exp.epsilon_sup, s_sw.epsilon_sup,
                                  s_po.epsilon_sup, eps_scan, elapsed))


def test_criterion_02_existence_margins(capsys):
    worst = max(m for name in PRESETS
                for m in existence_margins(preset_certificate(name)))
    verdict(capsys, 2, "existence-margins", worst < 0.0,
            "worst margin %.4f" % worst)


def test_criterion_03_martingale_residual(capsys):
    dt = 1e-3
    results = []
    for name in PRESETS:
        m = preset(name)
        t_end = m.t0 + 1.0
        start = time.perf_counter()
        batch = run_batch(m, IntegratorConfig(dt=dt, T=t_end), n_paths=10000,
                          i0=1, root_seed=2024, keep_paths=True)
        stat = martingale_residual(preset_lyapunov(name), batch, t_end)
        elapsed = time.perf_counter() - start
        z = stat.z_with_allowance(5.0 * dt * abs(stat.mean_integral))
        results.append((name, z, elapsed))
    ok = all(z <= 3.0 and el <= 300.0 for _, z, el in results)
    verdict(capsys, 3, "martingale-residual", ok,
            "; ".join("%s z %.2f %.0fs" % r for r in results))


def test_criterion_04_gbm_second_moment(capsys):
    # regime 2 of poly_stable alone collapses to dx = 0.07x dt + 0.1x dB,
    # whose relative second moment after one unit of time is e^0.15
    m = single_regime(preset("poly_stable"), 2)
    batch = run_batch(m, IntegratorConfig(dt=1e-3, T=m.t0 + 1.0),
                      n_paths=50000, i0=1, root_seed=404, keep_paths=False)
    sq = batch.uniform_values[:, -1] ** 2 / 0.25
    ratio = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / np.sqrt(len(sq)))
    target = float(np.exp(0.15))
    tol = 0.02 * target + 3.0 * se
    verdict(capsys, 4, "gbm-second-moment", abs(ratio - target) <= tol,
            "ratio %.5f target %.5f tol %.5f" % (ratio, target, tol))


def test_criterion_05_moment_rate(capsys, exp_long_batch):
    batch, elapsed = exp_long_batch
    rep = estimate_moment_rate(batch, p=2.0)
    ok = rep.fitted_rate <= -0.05 + 0.02 and elapsed <= 600.0
    verdict(capsys, 5, "moment-rate", ok,
            "slope %.4f vs bound -0.03; %.0fs" % (rep.fitted_rate, elapsed))


def test_criterion_06_pathwise_rate(capsys):
    # regime 2 of switch_stabilized grows on its own; the switched system
    # must still decay on every path and never explode
    batch = run_batch(preset("switch_stabilized"),
                      IntegratorConfig(dt=0.01, T=20.0), n_paths=500, i0=1,
                      root_seed=202, keep_paths=False)
    rep = estimate_as_rate(batch, p=2.0)
    ok = rep.fitted_rate <= -0.1 + 0.05 and batch.n_exploded == 0
    verdict(capsys, 6, "pathwise-rate", ok,
            "worst slope %.4f vs bound -0.05; exploded %d"
            % (rep.fitted_rate, batch.n_exploded))


def test_criterion_07_time_averages(capsys, exp_long_batch):
    batch, _ = exp_long_batch
    details = []
    ok = True
    for p in (2.0, 6.0):
        rep = estimate_time_average(batch, p=p)
        a10, a20, a30 = (rep.statistic_at(t) for t in (10.0, 20.0, 30.0))
        ok = ok and a10 > a20 > a30 and a30 < 1e-2
        details.append("p=%g: %.2e > %.2e > %.2e" % (p, a10, a20, a30))
    verdict(capsys, 7, "time-averages", ok, "; ".join(details))


def test_criterion_08_polynomial_rate(capsys):
    eps_sup = solve_epsilon_polynomial(preset_certificate("poly_stable")
                                       ).epsilon_sup
    batch = run_batch(preset("poly_stable"), IntegratorConfig(dt=0.01, T=54.0),
                      n_paths=500, i0=1, root_seed=303, keep_paths=False)
    rep = estimate_polynomial_rate(batch, p=4.0)
    bound = -eps_sup + 0.3
    verdict(capsys, 8, "polynomial-rate", rep.fitted_rate <= bound,
            "worst log-log slope %.4f vs bound %.4f" % (rep.fitted_rate,
                                                        bound))


def test_criterion_09_deterministic_output(capsys, tmp_path):
    outs = []
    for tag, block_size in (("a", 1), ("b", 3), ("c", 40)):
        cfg_path = tmp_path / ("experiment_%s.json" % tag)
        cfg_path.write_text(json.dumps({
            "model": {"preset": "exp_stable"},
            "simulation": {"dt": 0.02, "T": 2.0, "n_paths": 40,
                           "root_seed": 7, "block_size": block_size},
            "output": {"moments": [2.0], "per_path": True,
                       "per_path_limit": 5},
        }))
        out = tmp_path / tag
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    capsys.readouterr()
    files = ["summary.csv"] + ["paths/path_%05d.csv" % k for k in range(5)]
    ok = all((outs[0] / f).read_bytes() == (other / f).read_bytes()
             for f in files for other in outs[1:])
    verdict(capsys, 9, "deterministic-output", ok,
            "%d files byte-identical over block_size 1/3/40" % len(files))


def test_criterion_10_regime_occupation(capsys):
    # generator [[-1, 1], [2, -2]] has stationary law (2/3, 1/3)
    path = sample_regime_path(make_generator([[-1.0, 1.0], [2.0, -2.0]]),
                              i0=1, t0=0.0, T=1e4, seed=7)
    occ = path.occupation_fractions(2)
    dev = float(np.max(np.abs(occ - np.array([2.0 / 3.0, 1.0 / 3.0]))))
    verdict(capsys, 10, "regime-occupation", dev < 0.02,
            "occupation (%.4f, %.4f), max deviation %.4f" % (occ[0], occ[1],
                                                             dev))
