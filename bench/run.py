"""hpsfde benchmark: one workload per process, metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload switching --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  With ``--trace 0`` the workload's job is repeated
untraced for about ``--seconds`` seconds and the end-to-end metrics are
medians over those jobs.  With ``--trace 1`` untraced and traced jobs
alternate, then the untraced twin batches run, and the per-layer
metrics are medians over the traced jobs.  Every job's outputs are
checked outside the timed region.

End-to-end times are in reference seconds.  The speed of a shared host
drifts by up to 2x over tens of seconds, so every job and every set-up
probe runs between two runs of a fixed calibration kernel (numpy and
Python only, no package code), and its measured seconds are scaled by
``CALIBRATION_REF_S`` over the mean of the two calibration times.  The
raw seconds are in the record line.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
a record of the machine, the run, the counts, the output digests and the
per-job times.  Traced runs also write their spans to
``.bench_out/spans-<workload>-<seed>.csv.gz``.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up probes are timed from here

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
CALIBRATION_REF_S = 0.2
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
TRACE_JOB_SHARE = 0.6

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "integrator.us_per_switch": "us",
    "integrator.switch_cost_ratio": "ratio",
    "integrator.us_per_path_step": "us",
    "integrator.self_s": "s",
    "integrator.workers2_speedup": "ratio",
    "models.scalar_calls": "count",
    "models.scalar_s": "s",
    "models.vector_calls": "count",
    "models.s": "s",
    "markov.calls": "count",
    "markov.jumps": "count",
    "markov.s": "s",
    "markov.us_per_jump": "us",
    "paths.assembly_s": "s",
    "paths.assembly_us_per_path": "us",
    "paths.eval_calls": "count",
    "paths.eval_s": "s",
    "paths.csv_calls": "count",
    "paths.csv_s": "s",
    "paths.csv_bytes": "bytes",
    "lyapunov.residual_s": "s",
    "lyapunov.residual_share": "ratio",
    "lyapunov.lv_profile_calls": "count",
    "lyapunov.lv_profile_s": "s",
    "estimators.calls": "count",
    "estimators.s": "s",
    "certificates.calls": "count",
    "certificates.s": "s",
    "config.s": "s",
    "cli.simulate_s": "s",
    "cli.estimate_s": "s",
    "cli.certify_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "bench.calibration_ms": "ms",
}


def _load_package():
    """Import hpsfde from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "hpsfde", "__init__.py")):
        sys.exit("bench: no package source at %s" % SRC)
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("hpsfde")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        sys.exit("bench: hpsfde was imported from %s, not %s"
                 % (pkg.__file__, SRC))
    return pkg


def _median(values):
    return statistics.median(values) if values else 0.0


def calibrate():
    """Seconds taken by a fixed kernel of numpy and scalar Python work.

    The mix (1024-element array expressions, a sorted search, a scalar
    float loop) resembles the package's own, and no package code runs,
    so a change to the package cannot move it.  About 0.2 s on a 2 GHz
    Xeon core.
    """
    start = perf_counter()
    x = np.linspace(-1.0, 1.0, 1024)
    acc = 0.0
    for i in range(6000):
        y = x * 0.5 - x ** 3 * 0.25 + np.abs(x) * 0.1
        x = np.where(np.abs(y) < 2.0, y, 0.0) + 1e-3
        acc += int(np.searchsorted(x, 0.1 * (i % 7)))
        v = float(x[i % 1024])
        for _ in range(20):
            v = v + 0.01 * (-v - v * v * v) + 0.001 * math.sqrt(abs(v) + 1.0)
        acc += v
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return elapsed


class Calibrated:
    """Measured seconds scaled to reference seconds by the calibration.

    The constructor runs the first calibration.  Call ``add(seconds)``
    right after each timed piece of work: it runs the next calibration
    and scales by the mean of the two calibrations around the work.
    """

    def __init__(self):
        self.calibrations = [calibrate()]
        self.raw = []
        self.ref = []

    def add(self, seconds):
        self.calibrations.append(calibrate())
        around = 0.5 * (self.calibrations[-2] + self.calibrations[-1])
        self.raw.append(seconds)
        self.ref.append(seconds * CALIBRATION_REF_S / around)
        return self.ref[-1]


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class JobLog:
    """Times, failures and digests of every job one run makes."""

    def __init__(self, workload):
        self.workload = workload
        self.clock = Calibrated()
        self.failures = []      # one list of messages per job
        self.digests = []
        self.counts = None

    @property
    def attempted(self):
        return len(self.failures)

    @property
    def failed(self):
        return sum(1 for f in self.failures if f)

    def run(self, span=None):
        """Run and check one job; return its time in reference seconds.

        The checks run after the calibration that follows the job, so
        they are outside every timed region.
        """
        w = self.workload
        start = perf_counter()
        try:
            out = w.run() if span is None else w.run(span=span)
        except Exception:  # a failing job is data: count it and go on
            ref = self.clock.add(perf_counter() - start)
            self.failures.append([traceback.format_exc(limit=4)])
            return ref
        ref = self.clock.add(perf_counter() - start)
        try:
            fails = list(w.check(out))
            digest = w.digest(out)
            if self.digests and digest != self.digests[0]:
                fails.append("digest differs from the first job's")
            self.digests.append(digest)
            if self.counts is None:
                fails += w.determinism(out)
                self.counts = w.counts(out)
        except Exception:
            fails = [traceback.format_exc(limit=4)]
        finally:
            w.cleanup(out)
        self.failures.append(fails)
        return ref


def repeat(log, seconds, min_jobs):
    """Untraced jobs until about ``seconds`` of job time is spent."""
    while True:
        log.run()
        raw = log.clock.raw
        if len(raw) >= min_jobs and sum(raw) + _median(raw) > seconds:
            return


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(args):
    """Build and warm up in this process (the set-up path)."""
    workloads = importlib.import_module("workloads")
    os.makedirs(OUT_DIR, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny,
                                           workdir=OUT_DIR)
    w.prepare()
    w.warm_up()
    return w


def probe_setup(args):
    """Set-up seconds of fresh processes that run only set-up.

    Each process times itself, from its first statement to the end of
    the warm-up batch, and prints the seconds.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    clock = Calibrated()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        clock.add(float(proc.stdout.split()[-1]))
    return clock


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(table, covered, wall, jumps, counts):
    """Per-layer metrics of one traced job from its span table."""

    def pick(pred, col):
        return sum(row[col] for name, row in table.items() if pred(name))

    def calls(prefix):
        return pick(lambda n: n.startswith(prefix), 0)

    def total(prefix):
        return pick(lambda n: n.startswith(prefix), 1)

    def self_s(prefix):
        return pick(lambda n: n.startswith(prefix), 2)

    markov_s = self_s("markov.")
    residual = total("lyapunov.martingale_residual")
    batch_s = total("integrator.run_batch")
    return {
        "integrator.self_s": self_s("integrator."),
        "models.scalar_calls": pick(lambda n: n.startswith("models.")
                                    and n.endswith(":scalar"), 0),
        "models.scalar_s": pick(lambda n: n.startswith("models.")
                                and n.endswith(":scalar"), 2),
        "models.vector_calls": pick(lambda n: n.startswith("models.")
                                    and n.endswith(":vector"), 0),
        "models.s": self_s("models."),
        "markov.calls": calls("markov."),
        "markov.jumps": jumps,
        "markov.s": markov_s,
        "markov.us_per_jump": 1e6 * markov_s / jumps if jumps else 0.0,
        "paths.eval_calls": calls("paths.eval"),
        "paths.eval_s": total("paths.eval"),
        "paths.csv_calls": calls("paths.write_csv"),
        "paths.csv_s": total("paths.write_csv"),
        "paths.csv_bytes": (counts or {}).get("csv_bytes") or 0,
        "lyapunov.residual_s": residual,
        "lyapunov.residual_share": residual / batch_s if batch_s else 0.0,
        "lyapunov.lv_profile_calls": calls("lyapunov.lv_profile"),
        "lyapunov.lv_profile_s": total("lyapunov.lv_profile"),
        "estimators.calls": calls("estimators."),
        "estimators.s": self_s("estimators."),
        "certificates.calls": calls("certificates."),
        "certificates.s": self_s("certificates."),
        "config.s": self_s("config."),
        "cli.simulate_s": total("cli.simulate"),
        "cli.estimate_s": total("cli.estimate"),
        "cli.certify_s": total("cli.certify"),
        "trace.coverage": covered / wall if wall else 0.0,
    }


def twin_metrics(w, seconds, switches):
    """Per-layer metrics from untraced reference/twin batch pairs.

    Pairs alternate which batch runs first, for at least one pair and
    about ``seconds`` of batch time.
    """
    ref, twin = [], []
    twin_spec = w.twin()
    overrides = {} if twin_spec is None else twin_spec[1]
    while True:
        order = [False, True] if len(ref) % 2 == 0 else [True, False]
        for is_twin in order:
            if is_twin and twin_spec is None:
                continue
            start = perf_counter()
            if is_twin:
                w.reference_batch(**dict(overrides))
                twin.append(perf_counter() - start)
            else:
                w.reference_batch()
                ref.append(perf_counter() - start)
        if sum(ref) + sum(twin) + _median(ref) + _median(twin) > seconds:
            break
    ref_s, twin_s = _median(ref), _median(twin)
    out = {
        "integrator.us_per_path_step": 1e6 * ref_s / w.batch_path_steps,
        "integrator.us_per_switch": 0.0,
        "integrator.switch_cost_ratio": 0.0,
        "integrator.workers2_speedup": 0.0,
        "paths.assembly_s": 0.0,
        "paths.assembly_us_per_path": 0.0,
    }
    kind = None if twin_spec is None else twin_spec[0]
    if kind == "frozen_chain":
        out["integrator.us_per_switch"] = (
            1e6 * (ref_s - twin_s) / switches if switches else 0.0)
        out["integrator.switch_cost_ratio"] = ref_s / twin_s
    elif kind == "workers2":
        out["integrator.workers2_speedup"] = ref_s / twin_s
    elif kind == "no_paths":
        out["paths.assembly_s"] = ref_s - twin_s
        out["paths.assembly_us_per_path"] = (1e6 * (ref_s - twin_s)
                                             / w.n_paths)
    return out, {"reference_s": ref, "twin_s": twin, "twin": kind}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_run(args):
    setup = probe_setup(args)
    w = set_up(args)
    log = JobLog(w)
    try:
        repeat(log, args.seconds, MIN_JOBS)
    finally:
        w.close()
    wall = _median(log.clock.ref)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": w.path_steps / wall,
        "setup_s": _median(setup.ref),
        "peak_rss_mb": rss_mb,
    }
    raw_wall = _median(log.clock.raw)
    extra = {"raw": {"wall_s": raw_wall,
                     "path_steps_per_s": w.path_steps / raw_wall,
                     "setup_s": _median(setup.raw)},
             "job_s": log.clock.raw, "setup_s": setup.raw,
             "calibration_s": log.clock.calibrations + setup.calibrations}
    return w, log, metrics, END_TO_END, extra


def traced_run(args):
    spans = importlib.import_module("spans")
    w = set_up(args)
    log = JobLog(w)
    tracer = spans.Tracer()
    untraced, traced, per_job = [], [], []
    budget = TRACE_JOB_SHARE * args.seconds
    try:
        while True:
            untraced.append(log.run())
            tracer.run_id = len(traced)
            with tracer.installed():
                traced.append(log.run(span=tracer.span))
            table, covered = spans.aggregate(tracer.spans, tracer.run_id)
            jumps = tracer.counters.get((tracer.run_id, "markov.jumps"), 0)
            per_job.append(layer_metrics(table, covered, log.clock.raw[-1],
                                         jumps, log.counts))
            if (len(traced) >= MIN_TRACED_JOBS
                    and sum(log.clock.raw) + 2 * _median(log.clock.raw)
                    > budget):
                break
        twins, twin_times = twin_metrics(w, args.seconds - budget,
                                         (log.counts or {}).get("switches"))
    finally:
        w.close()
    metrics = {name: _median([job[name] for job in per_job])
               for name in per_job[0]}
    metrics.update(twins)
    metrics["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
    metrics["bench.calibration_ms"] = 1e3 * _median(log.clock.calibrations)
    dest = os.path.join(OUT_DIR, "spans-%s-%d.csv.gz"
                        % (args.workload, args.seed))
    tracer.dump(dest)
    extra = {"job_s": log.clock.raw, "traced_jobs": "every second job",
             "twins": twin_times, "spans": len(tracer.spans),
             "spans_file": os.path.relpath(dest, ROOT),
             "calibration_s": log.clock.calibrations}
    return w, log, metrics, PER_LAYER, extra


def machine_record():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "git_commit": commit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="run set-up and exit (used for setup_s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    _load_package()

    if args.setup_only:
        set_up(args).close()
        print(perf_counter() - STARTED)
        return 0
    run = traced_run if args.trace else timed_run
    w, log, values, units, extra = run(args)
    counts = dict(log.counts or {})
    if args.trace:
        counts["jumps"] = values["markov.jumps"]
    record = {
        "workload": args.workload, "why": w.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny,
        "machine": machine_record(), "counts": counts,
        "digest": log.digests[0] if log.digests else None,
        "failed_frac": {"value": log.failed / log.attempted,
                        "unit": "ratio"},
        "failures": [f for f in log.failures if f][:5],
        "jobs": log.attempted,
    }
    record.update(extra)
    print(json.dumps({"record": record}))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
