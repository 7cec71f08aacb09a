"""The four benchmark workloads.

Each workload is one user job, run the way the package's users run it:
build the model, simulate a batch with the library defaults
(``workers=1``, default ``block_size``), then check, estimate or write.
A workload also knows how to check its own outputs, digest them, re-run
its first paths at another block size (the determinism sub-check), and
time the untraced twin batches that the per-layer metrics need.

Sizes are fixed per workload; ``tiny=True`` shrinks them for the smoke
tests only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import tempfile

import numpy as np

# Package functions are looked up on ``hpsfde`` at call time, so that the
# traced run's wrappers see the calls this module makes.
import hpsfde
import hpsfde.cli
from hpsfde import IntegratorConfig

DETERMINISM_PATHS = 4
DETERMINISM_BLOCK = 3
PRESETS = ("exp_stable", "switch_stabilized", "poly_stable")


def _no_span(name):
    return contextlib.nullcontext()


def _sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _rows_differ(batch, n_rows, model, cfg, seed):
    """Re-run the first rows alone at another block size; compare bits."""
    twin = hpsfde.run_batch(model, cfg, n_rows, i0=1, root_seed=seed,
                            block_size=DETERMINISM_BLOCK, keep_paths=False)
    same = (twin.uniform_values.tobytes()
            == batch.uniform_values[:n_rows].tobytes())
    return [] if same else ["first %d rows differ at block_size=%d"
                            % (n_rows, DETERMINISM_BLOCK)]


class Workload:
    """One benchmark workload; subclasses fill in the job."""

    name = ""
    why = ""

    def __init__(self, seed, tiny=False, workdir=None):
        self.seed = int(seed)
        self.workdir = workdir

    # set-up ---------------------------------------------------------------

    def prepare(self):
        """Build models and configs (part of set-up, not of the job)."""

    def warm_up(self):
        """One small batch, so that lazy set-up is paid before timing."""
        cfg = IntegratorConfig(dt=self.dt, T=self.model.t0 + 0.2)
        hpsfde.run_batch(self.model, cfg, n_paths=4, i0=1,
                         root_seed=self.seed)

    def close(self):
        """Remove whatever the workload wrote."""

    def cleanup(self, out):
        """Remove what one job wrote, once it is checked."""

    # the job ---------------------------------------------------------------

    def run(self, span=_no_span):
        """The timed user job; returns its outputs."""
        raise NotImplementedError

    def check(self, out):
        """Failure messages for one job's outputs (empty when correct)."""
        raise NotImplementedError

    def digest(self, out):
        raise NotImplementedError

    def determinism(self, out):
        """Failure messages of the block-size sub-check."""
        raise NotImplementedError

    def counts(self, out):
        raise NotImplementedError

    @property
    def path_steps(self):
        """Paths times uniform steps simulated by one job."""
        raise NotImplementedError

    # twins -----------------------------------------------------------------

    def reference_batch(self, **overrides):
        """Run the job's main batch untraced; ``overrides`` make a twin."""
        kwargs = dict(n_paths=self.n_paths, i0=1, root_seed=self.seed,
                      keep_paths=self.keep_paths)
        model = overrides.pop("model", self.model)
        kwargs.update(overrides)
        return hpsfde.run_batch(model, self.cfg, **kwargs)

    def twin(self):
        """(name, keyword overrides) of the twin batch, or None."""
        return None

    @property
    def batch_path_steps(self):
        grid = hpsfde.uniform_grid(self.model.t0, self.cfg.T, self.cfg.dt)
        return self.n_paths * (len(grid) - 1)


class _BatchWorkload(Workload):
    """Workloads whose job holds a SimulationBatch."""

    keep_paths = False

    def prepare(self):
        self.model = self.build_model()
        self.cfg = IntegratorConfig(dt=self.dt, T=self.T)

    def simulate(self):
        return hpsfde.run_batch(self.build_model(),
                                IntegratorConfig(dt=self.dt, T=self.T),
                                n_paths=self.n_paths, i0=1,
                                root_seed=self.seed,
                                keep_paths=self.keep_paths)

    @property
    def path_steps(self):
        return self.batch_path_steps

    def digest(self, out):
        return _sha256(out["batch"].uniform_values.tobytes())

    def determinism(self, out):
        n = min(DETERMINISM_PATHS, self.n_paths)
        return _rows_differ(out["batch"], n, self.model, self.cfg, self.seed)

    def counts(self, out):
        batch = out["batch"]
        return {"paths": batch.n_paths,
                "steps": len(batch.uniform_times) - 1,
                "switches": int(batch.n_switches.sum()),
                "exploded": batch.n_exploded, "csv_bytes": 0}


class Switching(_BatchWorkload):
    name = "switching"
    why = ("exp_stable on [1, 30] with ~38 switches per path: the "
           "per-switch substep loop does most of the work")
    dt = 0.01

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.n_paths = 100 if tiny else 200
        self.T = 6.0 if tiny else 30.0

    def build_model(self):
        return hpsfde.preset("exp_stable")

    def run(self, span=_no_span):
        batch = self.simulate()
        return {"batch": batch,
                "moment": hpsfde.estimate_moment_rate(batch, p=2.0),
                "averages": [hpsfde.estimate_time_average(batch, p=p)
                             for p in (2.0, 6.0)],
                "as": hpsfde.estimate_as_rate(batch, p=2.0)}

    def check(self, out):
        fails = []
        if out["batch"].n_exploded:
            fails.append("%d paths exploded" % out["batch"].n_exploded)
        slope = out["moment"].fitted_rate
        if not slope <= -0.03:
            fails.append("moment slope %.4g > -0.03" % slope)
        for rep in out["averages"]:
            # at t = 10, 20, 30 on the full-size horizon
            a = [rep.statistic_at(self.T * k / 3.0) for k in (1, 2, 3)]
            if not a[0] > a[1] > a[2]:
                fails.append("time average not decreasing: %r" % (a,))
        return fails

    def twin(self):
        rates = np.zeros((self.model.n_regimes, self.model.n_regimes))
        frozen = dataclasses.replace(self.model,
                                     generator=hpsfde.make_generator(rates))
        return "frozen_chain", {"model": frozen}


class SwitchFree(_BatchWorkload):
    name = "switch_free"
    why = ("regime 1 of exp_stable alone over several default blocks: "
           "only the vectorized step and history lookup run")
    dt = 0.01

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.n_paths = 100 if tiny else 3000
        self.T = 6.0 if tiny else 15.0

    def build_model(self):
        return hpsfde.single_regime(hpsfde.preset("exp_stable"), 1)

    def run(self, span=_no_span):
        batch = self.simulate()
        return {"batch": batch,
                "moment": hpsfde.estimate_moment_rate(batch, p=2.0),
                "as": hpsfde.estimate_as_rate(batch, p=2.0)}

    def check(self, out):
        fails = []
        if out["batch"].n_exploded:
            fails.append("%d paths exploded" % out["batch"].n_exploded)
        if not out["moment"].fitted_rate < 0.0:
            fails.append("moment slope %.4g is not negative"
                         % out["moment"].fitted_rate)
        return fails

    def twin(self):
        return "workers2", {"workers": 2}


class ItoCheck(_BatchWorkload):
    name = "ito_check"
    why = ("switch_stabilized at dt=1e-3 with kept paths and the "
           "martingale residual: the only job that builds and reads "
           "DensePaths")
    dt = 1e-3
    keep_paths = True

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.n_paths = 120 if tiny else 1000
        self.T = 1.2 if tiny else 2.0

    def build_model(self):
        return hpsfde.preset("switch_stabilized")

    def run(self, span=_no_span):
        batch = self.simulate()
        stat = hpsfde.martingale_residual(
            hpsfde.preset_lyapunov("switch_stabilized"), batch, self.T)
        return {"batch": batch, "residual": stat}

    def check(self, out):
        stat = out["residual"]
        fails = []
        z = stat.z_with_allowance(5.0 * self.dt * abs(stat.mean_integral))
        if not z <= 3.0:
            fails.append("residual z %.3g > 3" % z)
        if stat.n_excluded:
            fails.append("%d paths excluded" % stat.n_excluded)
        return fails

    def digest(self, out):
        stat = out["residual"]
        fields = (stat.residual, stat.stderr, stat.z, stat.mean_integral)
        return _sha256(out["batch"].uniform_values.tobytes(),
                       np.array(fields).tobytes())

    def twin(self):
        return "no_paths", {"keep_paths": False}


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    why = ("in-process hpsfde simulate/estimate/certify from JSON configs: "
           "the only job that runs config, cli, CSV output and certificates")
    dt = 0.01
    keep_paths = True

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        self.n_paths = 100 if tiny else 120
        self.T = 2.0 if tiny else 11.0

    def prepare(self):
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        self.sim_config = os.path.join(self.dir, "simulate.json")
        self.sim_spec = {
            "model": {"preset": "poly_stable"},
            "simulation": {"dt": self.dt, "T": self.T,
                           "n_paths": self.n_paths, "root_seed": self.seed},
            "output": {"moments": [2.0], "per_path": True},
        }
        with open(self.sim_config, "w") as fh:
            json.dump(self.sim_spec, fh)
        self.cert_configs = []
        for name in PRESETS:
            dest = os.path.join(self.dir, "certify_%s.json" % name)
            with open(dest, "w") as fh:
                json.dump({"model": {"preset": name}}, fh)
            self.cert_configs.append(dest)
        self.model = hpsfde.config.build_model(self.sim_spec)
        self.cfg = IntegratorConfig(dt=self.dt, T=self.T)
        self._jobs = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, span=_no_span):
        self._jobs += 1
        out_dir = os.path.join(self.dir, "out%d" % self._jobs)
        report = os.path.join(out_dir, "report.csv")
        cli = hpsfde.cli.main
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            with span("cli.simulate"):
                codes = [cli(["simulate", "--config", self.sim_config,
                              "--out", out_dir])]
            with span("cli.estimate"):
                codes.append(cli(["estimate", "--config", self.sim_config,
                                  "--kind", "as", "--out", report]))
            certify = []
            with span("cli.certify"):
                for dest in self.cert_configs:
                    text = io.StringIO()
                    with contextlib.redirect_stdout(text):
                        codes.append(cli(["certify", "--config", dest]))
                    certify.append(text.getvalue())
        return {"dir": out_dir, "codes": codes, "certify": certify,
                "stdout": stdout.getvalue()}

    def _path_csvs(self, out):
        path_dir = os.path.join(out["dir"], "paths")
        if not os.path.isdir(path_dir):
            return []
        return sorted(os.path.join(path_dir, f) for f in os.listdir(path_dir))

    def check(self, out):
        fails = []
        if any(code != 0 for code in out["codes"]):
            fails.append("exit codes %r" % (out["codes"],))
        for name, text in zip(PRESETS, out["certify"]):
            if "overall: HOLDS" not in text:
                fails.append("certify %s does not print HOLDS" % name)
        n_csv = len(self._path_csvs(out))
        if n_csv != self.n_paths:
            fails.append("%d path CSVs for %d paths" % (n_csv, self.n_paths))
        return fails

    def digest(self, out):
        files = [os.path.join(out["dir"], "summary.csv"),
                 os.path.join(out["dir"], "report.csv")]
        chunks = []
        for name in files + self._path_csvs(out):
            with open(name, "rb") as fh:
                chunks.append(fh.read())
        return _sha256(*chunks)

    def determinism(self, out):
        n = min(DETERMINISM_PATHS, self.n_paths)
        twin = hpsfde.run_batch(self.model, self.cfg, n, i0=1,
                                root_seed=self.seed,
                                block_size=DETERMINISM_BLOCK, keep_paths=True)
        fails = []
        for p, name in enumerate(self._path_csvs(out)[:n]):
            text = io.StringIO()
            hpsfde.write_csv(twin.paths[p], text)
            with open(name, "rb") as fh:
                if fh.read() != text.getvalue().encode("utf-8"):
                    fails.append("path %d CSV differs at block_size=%d"
                                 % (p, DETERMINISM_BLOCK))
        return fails

    def counts(self, out):
        csvs = self._path_csvs(out)
        exploded = re.search(r"\((\d+) exploded\)", out["stdout"])
        return {"paths": self.n_paths,
                "steps": self.batch_path_steps // self.n_paths,
                "switches": None,
                "exploded": int(exploded.group(1)) if exploded else None,
                "csv_bytes": sum(os.path.getsize(f) for f in csvs)}

    def cleanup(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)

    @property
    def path_steps(self):
        # simulate and estimate each integrate the configured batch
        return 2 * self.batch_path_steps

    def twin(self):
        return "no_paths", {"keep_paths": False}


WORKLOADS = {w.name: w for w in (Switching, SwitchFree, ItoCheck,
                                 CliRoundtrip)}
