"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions of the ``hpsfde`` package with
wrappers that record one span per call: (id, name, start, end, parent,
run id).  Spans live in a list until the run ends; :meth:`Tracer.dump`
writes them out.  A layer's self time is the duration of its spans
minus the time their child spans cover.

Patching is by identity: every module-level name in ``hpsfde.*`` (and
every value of a module-level dict, such as the CLI's estimator table)
that holds the original function object is rebound to the wrapper, so a
boundary is counted however the package reaches it.  A target that no
longer exists is skipped and reports 0 calls.

The recorder keeps one call stack and so assumes that traced code runs
on one thread (``workers=1``); the traced jobs use the library default.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT_PARENT = -1


def _term_kind(args):
    """'scalar' for a term evaluated on one path's state, else 'vector'."""
    phi1 = args[1]
    if isinstance(phi1, np.ndarray) and phi1.ndim:
        return "vector"
    return "scalar"


def _count_jumps(result):
    return len(getattr(result, "jump_times", ()))


# (layer, module, attribute) of each wrapped function; the span name is
# "<layer>.<attribute>".  Term ``value`` methods are listed by class.
FUNCTION_TARGETS = (
    ("markov", "hpsfde.markov", "sample_regime_path"),
    ("integrator", "hpsfde.integrator", "run_batch"),
    ("paths", "hpsfde.paths", "eval"),
    ("paths", "hpsfde.paths", "write_csv"),
    ("lyapunov", "hpsfde.lyapunov", "lv_profile"),
    ("lyapunov", "hpsfde.lyapunov", "martingale_residual"),
    ("estimators", "hpsfde.estimators", "estimate_moment_rate"),
    ("estimators", "hpsfde.estimators", "estimate_as_rate"),
    ("estimators", "hpsfde.estimators", "estimate_time_average"),
    ("estimators", "hpsfde.estimators", "estimate_polynomial_rate"),
    ("certificates", "hpsfde.certificates", "check_existence"),
    ("certificates", "hpsfde.certificates", "existence_margins"),
    ("certificates", "hpsfde.certificates", "certify_epsilon_exponential"),
    ("certificates", "hpsfde.certificates", "solve_epsilon_exponential"),
    ("certificates", "hpsfde.certificates", "solve_epsilon_polynomial"),
    ("certificates", "hpsfde.certificates", "polynomial_margins"),
    ("certificates", "hpsfde.certificates", "moment_bound"),
    ("certificates", "hpsfde.certificates", "time_average_bound"),
    ("certificates", "hpsfde.certificates", "time_average_denominator"),
    ("config", "hpsfde.config", "load_config"),
    ("config", "hpsfde.config", "build_model"),
    ("config", "hpsfde.config", "build_lyapunov"),
    ("config", "hpsfde.config", "build_certificate"),
    ("config", "hpsfde.config", "simulation_params"),
)
METHOD_TARGETS = (
    ("models", "hpsfde.models", "PolynomialTerm"),
    ("models", "hpsfde.models", "PantographTerm"),
)
COUNTERS = {"markov.sample_regime_path": ("markov.jumps", _count_jumps)}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (run id, name) -> count
        self.run_id = 0
        self._stack = [ROOT_PARENT]
        self._next_id = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.run_id))

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, perf_counter())

    def wrap(self, fn, name, kind=None, counter=None):
        """A wrapper of ``fn`` that records a span per call.

        ``kind(args)`` appends a suffix to the span name; ``counter``
        is a (counter name, result -> int) pair.
        """
        tracer = self
        stack = self._stack
        spans = self.spans

        # _open and _close inlined: this runs on every term evaluation
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if kind is None else name + ":" + kind(args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, span_name, start, end, parent,
                              tracer.run_id))
            if counter is not None:
                key = (tracer.run_id, counter[0])
                tracer.counters[key] += counter[1](result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hpsfde"
                                   or mod_name.startswith("hpsfde.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((setattr, mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append(
                                (dict.__setitem__, value, dkey, original))
                            value[dkey] = wrapper

    def install(self):
        """Wrap every target that exists."""
        for layer, module, attr in FUNCTION_TARGETS:
            mod = sys.modules.get(module)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                continue
            name = "%s.%s" % (layer, attr)
            self._rebind(original, self.wrap(original, name,
                                             counter=COUNTERS.get(name)))
        for layer, module, cls_name in METHOD_TARGETS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = None if cls is None else cls.__dict__.get("value")
            if original is None:
                continue
            name = "%s.%s.value" % (layer, cls_name)
            self._undo.append((setattr, cls, "value", original))
            cls.value = self.wrap(original, name, kind=_term_kind)

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def dump(self, dest):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(dest, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start", "end", "parent", "run"))
            writer.writerows(self.spans)


def aggregate(spans, run_id):
    """Per span name: calls, total (inclusive) and self seconds.

    Also returns the summed duration of the run's root spans, which is
    the part of the job's wall time that the spans cover.
    """
    mine = [s for s in spans if s[5] == run_id]
    child_time = defaultdict(float)
    for sid, _, start, end, parent, _ in mine:
        if parent != ROOT_PARENT:
            child_time[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    covered = 0.0
    for sid, name, start, end, parent, _ in mine:
        dur = end - start
        row = table[name]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time.get(sid, 0.0)
        if parent == ROOT_PARENT:
            covered += dur
    return {k: tuple(v) for k, v in table.items()}, covered
