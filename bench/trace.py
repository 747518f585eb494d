"""Span recorder and layer wrappers for the benchmark's traced runs.

A :class:`Recorder` keeps spans in memory — name, start, end (both
``perf_counter_ns``, which on Linux is the system-wide monotonic clock,
so spans from child processes line up with the parent's), parent span
id and the workload/iteration label — and writes them as JSON lines at
exit.  :func:`install` wraps each :data:`TARGETS` entry so every call
becomes a span:

- a module-level function is replaced wherever a loaded ``repro.*``
  module binds the same object, including values of module-level dicts
  (``from x import f`` aliases and ``TRAIN_FLOWS``-style dispatch tables);
- a method is replaced on its class under every name bound to it
  (``__matmul__ = matmul``), keeping ``staticmethod`` and
  ``classmethod`` descriptors.

A layer's self time is its span's duration minus the durations of its
child spans.  Spans of one thread nest, so children never overlap; a
span opened on a thread with no open span attaches to
``Recorder.default_parent`` (the serve daemon's executor thread hangs
its spans under the process's ``cli.main`` span).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``name`` is its metric prefix
    (``<layer>.<function>``), ``module``/``qualname`` locate it."""

    name: str
    module: str
    qualname: str
    # A ``get(self, key, default=None)`` lookup: results other than the
    # default argument count as hits, giving a hit ratio.
    hits: bool = False
    # Orchestration spans (the engine and experiment runner): their self
    # time is work no layer claims, so it counts as unattributed.
    root: bool = False


TARGETS: Sequence[Target] = (
    Target("graphs.load_dataset", "repro.graphs.datasets", "load_dataset"),
    Target("graphs.partition_graph", "repro.graphs.partition",
           "partition_graph"),
    Target("perf.graph_fingerprint", "repro.perf.cache", "graph_fingerprint"),
    Target("perf.code_version", "repro.perf.cache", "code_version"),
    Target("perf.DiskCache.get", "repro.perf.cache", "DiskCache.get",
           hits=True),
    Target("perf.DiskCache.put", "repro.perf.cache", "DiskCache.put"),
    Target("artifacts.ArtifactStore.get", "repro.artifacts",
           "ArtifactStore.get", hits=True),
    Target("artifacts.ArtifactStore.put", "repro.artifacts",
           "ArtifactStore.put"),
    Target("sim.build_workload", "repro.sim.workload", "build_workload"),
    Target("sim.build_workload_batch", "repro.sim.workload",
           "build_workload_batch"),
    Target("sim.locality_structure", "repro.sim.locality",
           "locality_structure"),
    Target("sim.traffic_from_structure", "repro.sim.locality",
           "traffic_from_structure"),
    Target("sim.AcceleratorModel.simulate", "repro.sim.accelerator",
           "AcceleratorModel.simulate"),
    Target("sim.simulate_batch", "repro.sim.batched", "simulate_batch"),
    Target("formats.AdaptivePackageFormat.measure",
           "repro.formats.adaptive_package", "AdaptivePackageFormat.measure"),
    Target("formats.AdaptivePackageFormat.measure_batch",
           "repro.formats.adaptive_package",
           "AdaptivePackageFormat.measure_batch"),
    Target("eval.engine.SweepEngine.run", "repro.eval.engine",
           "SweepEngine.run", root=True),
    Target("eval.engine.SweepEngine.job_fingerprint", "repro.eval.engine",
           "SweepEngine.job_fingerprint"),
    Target("eval.journal.RunJournal.create", "repro.eval.journal",
           "RunJournal.create"),
    Target("eval.journal.RunJournal.record_job", "repro.eval.journal",
           "RunJournal.record_job"),
    Target("eval.journal.RunJournal.record_experiment", "repro.eval.journal",
           "RunJournal.record_experiment"),
    Target("report.run_experiment", "repro.report", "run_experiment",
           root=True),
    Target("report.Artifact.save", "repro.report", "Artifact.save"),
    Target("quant.flows.run_fp32", "repro.quant.flows", "run_fp32"),
    Target("quant.flows.run_degree_quant", "repro.quant.flows",
           "run_degree_quant"),
    Target("quant.flows.run_degree_aware", "repro.quant.flows",
           "run_degree_aware"),
    Target("quant.FakeQuantSTE.forward", "repro.quant.fake_quant",
           "FakeQuantSTE.forward"),
    Target("quant.FakeQuantSTE.backward", "repro.quant.fake_quant",
           "FakeQuantSTE.backward"),
    Target("quant.FakeQuantPerGroup.forward", "repro.quant.fake_quant",
           "FakeQuantPerGroup.forward"),
    Target("quant.FakeQuantPerGroup.backward", "repro.quant.fake_quant",
           "FakeQuantPerGroup.backward"),
    Target("tensor.dropout", "repro.tensor.functional", "dropout"),
    Target("tensor.Tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    Target("tensor.Tensor.matmul", "repro.tensor.tensor", "Tensor.matmul"),
    Target("tensor.Tensor.spmm", "repro.tensor.tensor", "Tensor.spmm"),
    Target("tensor.Adam.step", "repro.tensor.optim", "Adam.step"),
    Target("nn.train", "repro.nn.training", "train"),
    Target("nn.evaluate_masks", "repro.nn.training", "evaluate_masks"),
)

# Spans the benchmark opens itself.  ``cli.import`` times ``import
# repro.cli`` in a traced child; ``cli.main`` is that child's root;
# ``trace.write`` is the child's own trace dump.
IMPORT_SPAN = "cli.import"
MAIN_SPAN = "cli.main"
WRITE_SPAN = "trace.write"

# Per-layer metrics that are not ``<target>.self_s/.calls/.hit_ratio``.
# Workloads that have no such quantity report 0.  ``cold_s``,
# ``warm_s`` and ``peak_rss_mb`` come from the traced run's untraced
# cold operation and warm replays: end-to-end figures too unsteady
# across runs to bound.
EXTRA_LAYER_METRICS: Dict[str, str] = {
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "cli.import_s": "s",
    "eval.engine.executed_jobs": "count",
    "eval.engine.SweepEngine.run.total_s": "s",
    "report.run_experiment.total_s": "s",
    "serve.server_run_ms": "ms",
    "serve.overhead_ms": "ms",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "attributed_share": "ratio",
    "trace_overhead": "ratio",
}


def layer_metric_units(targets: Sequence[Target] = TARGETS) -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for target in targets:
        units[f"{target.name}.self_s"] = "s"
        units[f"{target.name}.calls"] = "count"
        if target.hits:
            units[f"{target.name}.hit_ratio"] = "ratio"
    units.update(EXTRA_LAYER_METRICS)
    return units


class Recorder:
    """In-memory span store for one process.

    Span ids are ``<prefix>.<n>``; give each process its own prefix (the
    pid) so traces of several processes merge without collisions.
    """

    def __init__(self, prefix: str, default_parent: Optional[str] = None,
                 label: str = "") -> None:
        self.prefix = prefix
        self.default_parent = default_parent
        self.label = label
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = f"{self.prefix}.{next(self._ids)}"
        parent = stack[-1] if stack else self.default_parent
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter_ns()

    def end(self, token: tuple, hit: Optional[bool] = None) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        span_id, parent, name, start = token
        self.spans.append((span_id, parent, name, start, end, self.label, hit))

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields its id."""
        token = self.begin(name)
        try:
            yield token[0]
        finally:
            self.end(token)

    def records(self) -> List[Dict[str, object]]:
        return [_as_record(span) for span in self.spans]

    def write(self, path) -> None:
        """Write every span as one JSON line, then a span for the write."""
        token = self.begin(WRITE_SPAN)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(_as_record(span)) + "\n")
            self.end(token)
            fh.write(json.dumps(_as_record(self.spans[-1])) + "\n")


def _as_record(span: tuple) -> Dict[str, object]:
    span_id, parent, name, start, end, label, hit = span
    record = {"id": span_id, "parent": parent, "name": name,
              "start_ns": start, "end_ns": end, "label": label}
    if hit is not None:
        record["hit"] = hit
    return record


def read_records(path) -> List[Dict[str, object]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _wrap(fn: Callable, recorder: Recorder, target: Target) -> Callable:
    name = target.name
    if target.hits:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            default = args[2] if len(args) > 2 else kwargs.get("default")
            token = recorder.begin(name)
            hit = None
            try:
                result = fn(*args, **kwargs)
                hit = result is not default
                return result
            finally:
                recorder.end(token, hit)
        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        token = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token)
    return timed


def _wrap_descriptor(raw, recorder: Recorder, target: Target):
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(_wrap(raw.__func__, recorder, target))
    return _wrap(raw, recorder, target)


def install(recorder: Recorder, targets: Sequence[Target] = TARGETS,
            package: str = "repro") -> Callable[[], List[str]]:
    """Wrap every target; returns ``uninstall``.

    Targets whose module, class or function no longer exists are
    skipped (their metrics read 0); ``uninstall()`` restores every
    original binding and returns the skipped target names.
    """
    undo: List[Callable[[], None]] = []
    missing: List[str] = []
    for target in targets:
        owner_name, _, attr = target.qualname.rpartition(".")
        try:
            module = importlib.import_module(target.module)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(target.name)
            continue
        if owner_name:
            wrapped = _wrap_descriptor(original, recorder, target)
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    undo.append(functools.partial(setattr, owner, key, value))
            continue
        wrapped = _wrap(original, recorder, target)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append(functools.partial(setattr, mod, key, value))
                elif type(value) is dict:
                    for dict_key, item in list(value.items()):
                        if item is original:
                            value[dict_key] = wrapped
                            undo.append(functools.partial(
                                value.__setitem__, dict_key, item))

    def uninstall() -> List[str]:
        for restore in reversed(undo):
            restore()
        undo.clear()
        return missing

    return uninstall


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def self_times(records: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Span id -> self time in ns (duration minus child durations)."""
    records = list(records)
    children: Dict[object, int] = defaultdict(int)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]] += record["end_ns"] - record["start_ns"]
    return {record["id"]: record["end_ns"] - record["start_ns"]
            - children[record["id"]] for record in records}


def layer_metrics(records: Sequence[Dict[str, object]],
                  targets: Sequence[Target] = TARGETS) -> Dict[str, float]:
    """Per-layer self time, calls and hit ratio, plus the accounting.

    ``traced_wall_s`` is the summed duration of the top-level spans;
    ``unattributed_s`` is the self time of top-level spans (the
    benchmark's own iteration spans, whose self time in a child
    process's span includes interpreter start-up), of ``cli.main``, of
    ``trace.write`` and of the orchestration targets;
    ``attributed_share`` is the rest of the top-level wall time as a
    share of it.
    """
    own = self_times(records)
    roots = {t.name for t in targets if t.root} | {MAIN_SPAN, WRITE_SPAN}
    ids = {record["id"] for record in records}
    self_ns: Dict[str, int] = defaultdict(int)
    total_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    hits: Dict[str, int] = defaultdict(int)
    wall_ns = unattributed_ns = 0
    for record in records:
        name = record["name"]
        duration = record["end_ns"] - record["start_ns"]
        self_ns[name] += own[record["id"]]
        total_ns[name] += duration
        calls[name] += 1
        hits[name] += bool(record.get("hit"))
        top = record["parent"] not in ids
        if top:
            wall_ns += duration
        if top or name in roots:
            unattributed_ns += own[record["id"]]
    metrics: Dict[str, float] = {}
    for target in targets:
        metrics[f"{target.name}.self_s"] = self_ns[target.name] / 1e9
        metrics[f"{target.name}.calls"] = calls[target.name]
        if target.hits:
            metrics[f"{target.name}.hit_ratio"] = (
                hits[target.name] / calls[target.name]
                if calls[target.name] else 0.0)
    metrics["cli.import_s"] = total_ns[IMPORT_SPAN] / 1e9
    metrics["eval.engine.SweepEngine.run.total_s"] = (
        total_ns["eval.engine.SweepEngine.run"] / 1e9)
    metrics["report.run_experiment.total_s"] = (
        total_ns["report.run_experiment"] / 1e9)
    metrics["traced_wall_s"] = wall_ns / 1e9
    metrics["unattributed_s"] = unattributed_ns / 1e9
    metrics["attributed_share"] = (1.0 - unattributed_ns / wall_ns
                                   if wall_ns else 0.0)
    return metrics


def durations_ms(records: Iterable[Dict[str, object]], name: str) -> List[float]:
    """Durations of every span called ``name``, in milliseconds."""
    return [(record["end_ns"] - record["start_ns"]) / 1e6
            for record in records if record["name"] == name]
