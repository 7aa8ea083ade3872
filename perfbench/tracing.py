"""Outside-in tracing of eulerlab's layers.

The tracer wraps public functions from outside the program: each target
is replaced in every ``eulerlab`` module namespace that binds it (``cli``
imports ``run``, ``save_bundle`` and others by name, ``solver`` imports
``pressure``), and methods are replaced on their class.  A wrapped call
records a span (name, start, end, parent, run id) in memory while
recording is on; spans are written once, at the end of the run.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Every span name maps to exactly one self-time
metric, so the self times of a batch add up to the batch's traced total.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


class TraceError(RuntimeError):
    """The trace cannot be trusted: a target is missing or was never hit."""


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_step(counters, args, kwargs, result):
    counters["solver.cells"] += math.prod(_arg(args, kwargs, 0, "state").grid.counts)


def _count_save_state(counters, args, kwargs, result):
    counters["fields.rows_written"] += math.prod(_arg(args, kwargs, 0, "state").grid.counts)
    counters["fields.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_load_state(counters, args, kwargs, result):
    counters["fields.rows_read"] += math.prod(_arg(args, kwargs, 0, "grid").counts)


def _count_sample_array(counters, args, kwargs, result):
    counters["riemann.points"] += np.size(_arg(args, kwargs, 1, "xi"))


def _count_dictionary(counters, args, kwargs, result):
    counters["dissipative.test_functions"] += len(result)


def _cli_span(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


@dataclass(frozen=True)
class Target:
    span: str                    # span name; count-only targets record none
    module: str
    attr: str                    # "function" or "Class.method"
    count: Callable | None = None
    span_of: Callable | None = None   # per-call span name
    record: bool = True


TARGETS = (
    Target("solver.run", "eulerlab.solver", "run"),
    Target("solver.step", "eulerlab.solver", "step", count=_count_step),
    Target("solver.stable_dt", "eulerlab.solver", "stable_dt"),
    Target("eos.pressure", "eulerlab.eos", "pressure"),
    Target("eos.sound_speed", "eulerlab.eos", "sound_speed"),
    Target("fields.save_state_csv", "eulerlab.fields", "save_state_csv",
           count=_count_save_state),
    Target("fields.load_state_csv", "eulerlab.fields", "load_state_csv",
           count=_count_load_state),
    Target("fields.integrate_energy", "eulerlab.fields", "integrate_energy"),
    Target("trajectory.save_bundle", "eulerlab.trajectory", "save_bundle"),
    Target("trajectory.load_bundle", "eulerlab.trajectory", "load_bundle"),
    Target("trajectory.init", "eulerlab.trajectory", "Trajectory.__init__"),
    Target("trajectory.concatenate", "eulerlab.trajectory", "concatenate"),
    Target("trajectory.stopping_time", "eulerlab.trajectory", "stopping_time"),
    Target("stress.kinetic_tensor", "eulerlab.stress", "kinetic_tensor"),
    Target("stress.min_eigenvalue", "eulerlab.stress", "ReynoldsField.min_eigenvalue"),
    Target("stress.save_npz", "eulerlab.stress", "ReynoldsField.save_npz"),
    Target("stress.load_npz", "eulerlab.stress", "ReynoldsField.load_npz"),
    Target("dissipative.certify", "eulerlab.dissipative", "certify"),
    Target("dissipative.continuity_residual", "eulerlab.dissipative", "continuity_residual"),
    Target("dissipative.momentum_residual", "eulerlab.dissipative", "momentum_residual"),
    Target("dissipative.estimate_reynolds", "eulerlab.dissipative", "estimate_reynolds"),
    Target("dissipative.default_dictionary", "eulerlab.dissipative", "default_dictionary",
           count=_count_dictionary, record=False),
    Target("riemann.solve_riemann", "eulerlab.riemann", "solve_riemann"),
    Target("riemann.sample_array", "eulerlab.riemann", "RiemannSolution.sample_array",
           count=_count_sample_array),
    Target("riemann.sample_cell_averages", "eulerlab.riemann", "sample_cell_averages"),
    Target("selection.select", "eulerlab.selection", "select"),
    Target("selection.is_absolute_minimizer", "eulerlab.selection", "is_absolute_minimizer"),
    Target("cli.load_config", "eulerlab.cli", "load_config"),
    Target("cli.main", "eulerlab.cli", "main", span_of=_cli_span),
)

# self-time metric -> the span names it sums
SELF_TIMES = {
    "solver.run_s": ("solver.run",),
    "solver.step_s": ("solver.step",),
    "solver.stable_dt_s": ("solver.stable_dt",),
    "eos.pressure_s": ("eos.pressure",),
    "eos.sound_speed_s": ("eos.sound_speed",),
    "fields.save_state_csv_s": ("fields.save_state_csv",),
    "fields.load_state_csv_s": ("fields.load_state_csv",),
    "fields.integrate_energy_s": ("fields.integrate_energy",),
    "trajectory.save_bundle_s": ("trajectory.save_bundle",),
    "trajectory.load_bundle_s": ("trajectory.load_bundle",),
    "trajectory.init_s": ("trajectory.init",),
    "trajectory.concatenate_s": ("trajectory.concatenate",),
    "trajectory.stopping_time_s": ("trajectory.stopping_time",),
    "stress.kinetic_tensor_s": ("stress.kinetic_tensor",),
    "stress.min_eigenvalue_s": ("stress.min_eigenvalue",),
    "stress.npz_s": ("stress.save_npz", "stress.load_npz"),
    "dissipative.certify_s": ("dissipative.certify",),
    "dissipative.residual_s": ("dissipative.continuity_residual",
                               "dissipative.momentum_residual"),
    "dissipative.estimate_reynolds_s": ("dissipative.estimate_reynolds",),
    "riemann.solve_riemann_s": ("riemann.solve_riemann",),
    "riemann.sample_array_s": ("riemann.sample_array",),
    "riemann.sample_cell_averages_s": ("riemann.sample_cell_averages",),
    "selection.select_s": ("selection.select",),
    "selection.is_absolute_minimizer_s": ("selection.is_absolute_minimizer",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.ensemble_self_s": ("cli.ensemble",),
    "cli.diagnose_self_s": ("cli.diagnose",),
    "cli.select_self_s": ("cli.select",),
    "cli.dt1_self_s": ("cli.dt1-demo",),
    "cli.dt2_self_s": ("cli.dt2-demo",),
    "cli.riemann_self_s": ("cli.riemann",),
}

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    **{m: "s" for m in ("solver.run_s", "solver.step_s", "solver.stable_dt_s")},
    "solver.steps": "count", "solver.cell_updates_per_s": "1/s",
    "solver.stable_dt_per_step": "ratio",
    "eos.pressure_s": "s", "eos.sound_speed_s": "s", "eos.calls": "count",
    "fields.save_state_csv_s": "s", "fields.load_state_csv_s": "s",
    "fields.integrate_energy_s": "s", "fields.rows_written": "count",
    "fields.rows_read": "count", "fields.bytes_written": "B",
    **{m: "s" for m in ("trajectory.save_bundle_s", "trajectory.load_bundle_s",
                        "trajectory.init_s", "trajectory.concatenate_s",
                        "trajectory.stopping_time_s", "stress.kinetic_tensor_s",
                        "stress.min_eigenvalue_s", "stress.npz_s",
                        "dissipative.certify_s", "dissipative.residual_s")},
    "dissipative.residual_calls": "count",
    "dissipative.residual_calls_per_test_function": "ratio",
    "dissipative.estimate_reynolds_s": "s",
    "riemann.solve_riemann_s": "s", "riemann.sample_array_s": "s",
    "riemann.sample_cell_averages_s": "s", "riemann.points": "count",
    "riemann.points_per_s": "1/s",
    **{m: "s" for m in ("selection.select_s", "selection.is_absolute_minimizer_s",
                        "cli.load_config_s", "cli.ensemble_self_s", "cli.diagnose_self_s",
                        "cli.select_self_s", "cli.dt1_self_s", "cli.dt2_self_s",
                        "cli.riemann_self_s", "trace.overhead_s")},
    "outputs.sha256_mismatches": "count",
}


class Tracer:
    """Installs wrappers around the targets and records their spans."""

    def __init__(self, targets=TARGETS, package: str = "eulerlab"):
        self.targets = targets
        self.package = package
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self._stack = [-1]
        self._active = False
        self._patches = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, target: Target, fn):
        tracer = self
        count = target.count
        if not target.record:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer._active:
                    count(tracer.counters, args, kwargs, result)
                return result
            return functools.update_wrapper(wrapper, fn)

        fixed = None if target.span_of else self._id(target.span)
        span_of = target.span_of

        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.name_id.append(fixed if span_of is None
                                  else tracer._id(span_of(args, kwargs)))
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(tracer.run_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Replace every target in every namespace of the package that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        try:
            for t in self.targets:
                mod = importlib.import_module(t.module)
                if "." in t.attr:
                    cls_name, meth = t.attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(t, raw.__func__))
                    else:
                        wrapped = self._wrap(t, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                fn = getattr(mod, t.attr)
                wrapped = self._wrap(t, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapped)
        except (AttributeError, KeyError) as e:
            self.uninstall()
            raise TraceError(f"trace target not found: {e}") from e

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self, run_id: int):
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def recording(self):
        """Record spans only inside this block, around one timed call."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    # -- analysis ----------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "run": np.array(self.run, dtype=np.int32)}

    def calls(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(np.count_nonzero(np.array(self.name_id) == i))

    def require_calls(self, names) -> None:
        """Zero-call guard: each named span must have been recorded."""
        missing = [n for n in names if self.calls(n) == 0]
        if missing:
            raise TraceError("no calls recorded for " + ", ".join(missing)
                             + "; a binding of the function was not wrapped")

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    child = np.zeros_like(duration)
    has = parent >= 0
    np.add.at(child, parent[has], duration[has])
    return duration - child


def layer_metrics(tracer: Tracer, untraced_totals: list, sha256_mismatches: int) -> dict:
    """Per-layer metrics as means per traced batch.

    Means (not medians) keep the arithmetic exact: the self-time metrics
    sum to the mean traced total, which is the mean untraced total plus
    ``trace.overhead_s``.
    """
    a = tracer.arrays()
    runs = np.unique(a["run"])
    n = max(len(runs), 1)
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)
    by_name = defaultdict(lambda: [0.0, 0.0, 0])   # self, inclusive, calls
    for i, name in enumerate(tracer.names):
        mask = a["name"] == i
        by_name[name] = [float(own[mask].sum()) / n, float(dur[mask].sum()) / n,
                         int(mask.sum()) / n]
    attributed = {s for spans in SELF_TIMES.values() for s in spans}
    stray = sorted(set(tracer.names) - attributed)
    if stray:
        raise TraceError("spans without a self-time metric: " + ", ".join(stray))

    m = {metric: sum(by_name[s][0] for s in spans) for metric, spans in SELF_TIMES.items()}
    traced_total = float(dur[a["parent"] < 0].sum()) / n
    self_sum = sum(m.values())
    if abs(self_sum - traced_total) > 1e-9 * max(traced_total, 1.0):
        raise TraceError(f"self times sum to {self_sum}, traced total is {traced_total}")

    c = {k: v / n for k, v in tracer.counters.items()}
    steps = by_name["solver.step"][2]
    residual_calls = (by_name["dissipative.continuity_residual"][2]
                      + by_name["dissipative.momentum_residual"][2])
    m.update({
        "solver.steps": steps,
        "solver.cell_updates_per_s": _ratio(c.get("solver.cells", 0.0),
                                            by_name["solver.step"][1]),
        "solver.stable_dt_per_step": _ratio(by_name["solver.stable_dt"][2], steps),
        "eos.calls": by_name["eos.pressure"][2] + by_name["eos.sound_speed"][2],
        "fields.rows_written": c.get("fields.rows_written", 0.0),
        "fields.rows_read": c.get("fields.rows_read", 0.0),
        "fields.bytes_written": c.get("fields.bytes_written", 0.0),
        "dissipative.residual_calls": residual_calls,
        "dissipative.residual_calls_per_test_function":
            _ratio(residual_calls, c.get("dissipative.test_functions", 0.0)),
        "riemann.points": c.get("riemann.points", 0.0),
        "riemann.points_per_s": _ratio(c.get("riemann.points", 0.0),
                                       by_name["riemann.sample_array"][1]),
        "trace.overhead_s": traced_total - float(np.mean(untraced_totals)),
        "outputs.sha256_mismatches": sha256_mismatches,
    })
    return {k: m[k] for k in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
