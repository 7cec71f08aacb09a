"""Command line front end.

Four subcommands, all driven by a JSON experiment file:

  simulate   integrate a batch and write summary (and optional
             per-path) CSVs
  check-ito  Monte Carlo residual of the hybrid Ito identity for the
             configured Lyapunov family, and the mean LV integral
             split into its drift, diffusion and coupling parts, in
             total and by regime
  certify    evaluate stability certificates from coefficient data;
             exit code 0 iff every requested check holds
  estimate   fit a decay rate from a simulated batch and write the
             report CSV

The config schema is documented in :mod:`hpsfde.config`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as config_mod
from .certificates import (CertificateData, check_existence,
                           certify_epsilon_exponential,
                           solve_epsilon_exponential,
                           solve_epsilon_polynomial, time_average_bound)
from .errors import Error, NotApplicable, require_index
from .estimators import (estimate_as_rate, estimate_moment_rate,
                         estimate_polynomial_rate, estimate_time_average,
                         moment_curve, require_power)
from .integrator import IntegratorConfig, SimulationBatch, run_batch
from .lyapunov import martingale_residual, require_t_end
from .paths import write_table

_ESTIMATORS = {
    "moment": estimate_moment_rate,
    "as": estimate_as_rate,
    "avg": estimate_time_average,
    "poly": estimate_polynomial_rate,
}


def _simulate_batch(cfg: dict, model, keep_paths: bool = False
                    ) -> SimulationBatch:
    sim = config_mod.simulation_params(cfg)
    require_index("simulation.i0", sim["i0"], model.n_regimes)
    icfg = IntegratorConfig(dt=sim["dt"], T=sim["T"],
                            blowup_threshold=sim["blowup_threshold"])
    return run_batch(model, icfg, sim["n_paths"], sim["i0"],
                     sim["root_seed"], block_size=sim["block_size"],
                     keep_paths=keep_paths)


def _write_summary(batch: SimulationBatch, moments, dest) -> None:
    """Batch summary CSV: time, regime occupancy, requested moments.

    Occupancy counts every path's regime chain; moment columns average
    |x|^p over the non-exploded paths only.
    """
    n_regimes = batch.model.n_regimes
    cols = ["time"]
    cols += ["occ_%d" % i for i in range(1, n_regimes + 1)]
    cols += ["moment_%g" % p for p in moments]
    series = [batch.uniform_times]
    for i in range(1, n_regimes + 1):
        series.append((batch.regimes_uniform == i).mean(axis=0))
    for p in moments:
        if batch.n_exploded < batch.n_paths:
            series.append(moment_curve(batch, p))
        else:
            series.append(np.full(len(batch.uniform_times), np.nan))
    write_table(dest, cols, series)


def cmd_simulate(args) -> int:
    cfg = config_mod.load_config(args.config)
    out_spec = cfg.get("output", {})
    per_path = bool(out_spec.get("per_path", False))
    limit = out_spec.get("per_path_limit")
    if limit is not None and int(limit) < 0:
        raise ValueError("output.per_path_limit must be >= 0, got %r"
                         % (limit,))
    if limit is not None and not per_path:
        raise ValueError("output.per_path_limit is set but output.per_path "
                         "is not true, so no path file would be written")
    moments = out_spec.get("moments", [2.0])
    for k, p in enumerate(moments):
        require_power(p, "output.moments[%d]" % k)
    batch = _simulate_batch(cfg, config_mod.build_model(cfg),
                            keep_paths=per_path)
    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "summary.csv")
    _write_summary(batch, moments, summary)
    written = [summary]
    if per_path:
        path_dir = os.path.join(args.out, "paths")
        os.makedirs(path_dir, exist_ok=True)
        n_dump = batch.n_paths if limit is None else min(int(limit),
                                                         batch.n_paths)
        batch.paths.write_csvs([os.path.join(path_dir, "path_%05d.csv" % p)
                                for p in range(n_dump)])
        written.append("%s (%d files)" % (path_dir, n_dump))
    print("simulated %d paths (%d exploded); wrote %s"
          % (batch.n_paths, batch.n_exploded, ", ".join(written)))
    return 0


def cmd_check_ito(args) -> int:
    cfg = config_mod.load_config(args.config)
    fam = config_mod.build_lyapunov(cfg)
    model = config_mod.build_model(cfg)
    T = config_mod.simulation_params(cfg)["T"]
    t_end = float(cfg.get("lyapunov", {}).get("t_end", T))
    require_t_end(t_end, model.t0, T, name="lyapunov.t_end")
    batch = _simulate_batch(cfg, model, keep_paths=True)
    stat = martingale_residual(fam, batch, t_end)
    name = cfg.get("model", {}).get("preset") or "custom"
    print("preset,t_end,residual,stderr,z")
    print("%s,%.17g,%.17g,%.17g,%.17g"
          % (name, stat.t_end, stat.residual, stat.stderr, stat.z))
    parts = ("drift_part", "diffusion_part", "coupling_part")
    regimes = stat.regime_parts
    write_table(sys.stdout, ("mean_integral",) + parts,
                [[stat.mean_integral]]
                + [[getattr(stat.parts, p)] for p in parts])
    write_table(sys.stdout, ("regime",) + parts,
                [range(1, len(regimes) + 1)]
                + [[getattr(r, p) for r in regimes] for p in parts])
    return 0


def _print_verdict(title: str, holds: bool, lines) -> None:
    print("== %s ==" % title)
    for line in lines:
        print("  " + line)
    print("  verdict: %s" % ("HOLDS" if holds else "FAILS"))


def _run_certify_checks(data: CertificateData, checks, epsilon) -> bool:
    all_hold = True
    for check in checks:
        try:
            if check == "existence":
                v = check_existence(data)
                _print_verdict("existence", v.holds, v.detail)
                all_hold &= v.holds
            elif check in ("exponential", "polynomial"):
                if check == "polynomial":
                    v = solve_epsilon_polynomial(data)
                elif epsilon is not None:
                    v = certify_epsilon_exponential(data, float(epsilon))
                else:
                    v = solve_epsilon_exponential(data)
                lines = list(v.detail) + list(v.notes)
                if v.epsilon is not None:
                    lines.append("epsilon = %.17g" % v.epsilon)
                _print_verdict("%s rate" % check, v.holds, lines)
                all_hold &= v.holds
            else:  # time-average; load_config rejects other names
                lines = []
                ok = True
                for k in range(1, data.n_families + 1):
                    try:
                        lines.append("k=%d: asymptotic bound %.17g"
                                     % (k, time_average_bound(data, k)))
                    except Error as exc:
                        lines.append("k=%d: %s" % (k, exc))
                        ok = False
                _print_verdict("time averages", ok, lines)
                all_hold &= ok
        except NotApplicable as exc:
            _print_verdict(check, False, ["not applicable: %s" % exc])
            all_hold = False
    return all_hold


def cmd_certify(args) -> int:
    cfg = config_mod.load_config(args.config)
    data = config_mod.build_certificate(cfg)
    spec = cfg.get("certificate", {})
    checks = spec.get("checks")
    if checks is None:
        if data.beta is not None:
            checks = ["existence", "exponential", "time-average"]
        else:
            checks = ["existence", "polynomial"]
    epsilon = spec.get("epsilon")
    if epsilon is not None and "exponential" not in checks:
        raise ValueError("certificate.epsilon is read only by the exponential "
                         "check, which is not among the checks run (%s)"
                         % ", ".join(checks))
    all_hold = _run_certify_checks(data, checks, epsilon)
    print("overall: %s" % ("HOLDS" if all_hold else "FAILS"))
    return 0 if all_hold else 1


def cmd_estimate(args) -> int:
    cfg = config_mod.load_config(args.config)
    power = float(cfg.get("estimate", {}).get("power", 2.0))
    require_power(power, "estimate.power")
    batch = _simulate_batch(cfg, config_mod.build_model(cfg))
    report = _ESTIMATORS[args.kind](batch, power)
    report.to_csv(args.out)
    print("kind=%s fitted_rate=%.17g stderr=%.17g window=[%.17g, %.17g] "
          "n_exploded=%d -> %s"
          % (report.kind, report.fitted_rate, report.stderr,
             report.window[0], report.window[1], report.n_exploded,
             args.out))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpsfde",
        description="Simulation and stability analysis of regime-switching "
                    "pantograph SDEs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a batch of paths")
    p_sim.add_argument("--config", required=True, help="experiment JSON")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(fn=cmd_simulate)

    p_ito = sub.add_parser("check-ito",
                           help="martingale residual of the Ito identity")
    p_ito.add_argument("--config", required=True, help="experiment JSON")
    p_ito.set_defaults(fn=cmd_check_ito)

    p_cert = sub.add_parser("certify",
                            help="evaluate stability certificates")
    p_cert.add_argument("--config", required=True, help="experiment JSON")
    p_cert.set_defaults(fn=cmd_certify)

    p_est = sub.add_parser("estimate", help="fit a decay rate")
    p_est.add_argument("--config", required=True, help="experiment JSON")
    p_est.add_argument("--kind", required=True,
                       choices=sorted(_ESTIMATORS),
                       help="which rate to fit")
    p_est.add_argument("--out", default="report.csv",
                       help="report CSV destination")
    p_est.set_defaults(fn=cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Error, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
