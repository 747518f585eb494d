"""The benchmark's four workloads; each run happens in its own process.

    python -m bench.worker --workload NAME --seed N --seconds S --trace 0|1 \\
        --tmp DIR --result FILE
    python -m bench.worker --setup NAME --seed N

The first form runs one workload and writes its samples, checks and (with
``--trace 1``) per-layer metrics to ``FILE``; ``bench/run.py`` starts it
and turns the samples into metrics.  The second form is the set-up
probe: a fresh interpreter that imports what the workload drives and
builds its inputs, timed from outside as ``setup_s``.

Every workload makes its inputs from the seed, keeps all state under
``DIR`` (one fresh ``REPRO_CACHE_DIR`` per cold iteration) and checks
the program's outputs outside the timed regions:

- ``paper_figs`` drives the CLI: a cold ``repro run`` of the figure
  experiments on an empty store, then warm re-runs on that store, each
  in a fresh process;
- ``dse_grid`` drives the library: a cold ``SweepEngine`` run of a
  201-variant design-space grid, then warm replays from the store;
- ``table6_train`` drives the library: a cold Table VI training run,
  then warm replays that train nothing;
- ``serve_mixed`` drives a ``repro serve`` daemon over HTTP with two
  closed-loop clients mixing warm reads and cold sweeps.

A cold iteration's timed operation is followed by warm replays of its
store; iterations repeat while the next one fits in ``--seconds`` (see
:func:`timed_loop`).
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("paper_figs", "dse_grid", "table6_train", "serve_mixed")

# Warm replays after each cold operation.
WARM_PER_COLD = 5
# Timed set-up probes per run, after one untimed probe.
SETUP_PROBES = 9
# Upper bound on any single child process of a workload.
CHILD_TIMEOUT_S = 150.0
# Peak memory depends on the str hash seed and the address layout: both
# order sets of objects, and so the order in which buffers are freed.
# Across fresh processes the same training's peak RSS moves by up to 5%.
# Every process of a run uses this hash seed and no address
# randomization, so peak RSS depends only on the code and the inputs.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000

PAPER_EXPERIMENTS = ("speedup_table", "dram_table", "energy_table",
                     "stall_table", "package_length_study",
                     "original_config_comparison", "energy_breakdown_fig18")
PAPER_SUITE = "paper"

DSE_DATASET = "nell"
DSE_ACCELERATORS = ("mega", "mega-no-condense", "mega-bitmap")
DSE_TARGETS = 67
# Every ORACLE_STRIDE-th grid job is re-simulated on the scalar path.
ORACLE_STRIDE = 10

TABLE6_CASES = (("cora", "gcn"),)
# 40 epochs is the smallest budget at which seed 0's Degree-Aware run
# meets its memory budget (at 20 it reports accuracy 0.0).
TABLE6_EPOCHS = 40

# The request mix is an assumed one: no measured usage of the daemon
# backs the client count or the cold share.  Only the serve timings
# depend on it; peak memory does not (see SERVE_RSS_AFTER_COLD).
SERVE_CLIENTS = 2
SERVE_COLD_SHARE = 1.0 / 6.0
SERVE_WARM_SPECS = (
    {"experiment": "stall_table", "suite": "quick"},
    {"experiment": "dram_table", "suite": "quick"},
    {"experiment": "speedup_table", "suite": "smoke"},
    {"experiment": "ablation_fig19"},
    {"experiment": "locality_study"},
)
# Served artifacts re-computed in-process as the reference check: the
# warm-up answers, then the first cold answers.
SERVE_REFERENCE_SAMPLES = 10
# The daemon caches every distinct cold result, so its memory grows with
# each cold request; warm requests only re-read results cached by the
# warm-up.  Peak RSS is read once this many cold requests have completed
# (or at the end of a run that serves fewer), so it does not depend on
# the cold share or on how many requests fit in the run.
SERVE_RSS_AFTER_COLD = 400


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------

@dataclass
class Run:
    """Everything one workload run measures and checks."""

    name: str
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    records: List[Dict[str, object]] = field(default_factory=list)
    missing_targets: List[str] = field(default_factory=list)
    _dirs: int = 0

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok: bool, problem: str) -> None:
        if not ok and problem not in self.problems:
            self.problems.append(problem)

    def op(self, ok: bool, problem: str) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check(False, problem)

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def child_env(cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, with the
    checkout's sources on the path, the pinned hash seed and an explicit
    cache directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def no_address_randomization() -> None:
    """``preexec_fn`` of the worker: programs it and its children exec
    get a fixed address layout.  Without the ``personality`` call the
    run goes on with a random layout."""
    import ctypes

    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)         # query, change nothing
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def use_store(store: Path) -> None:
    """Point this process's engine and caches at an empty store."""
    from repro.eval.engine import set_engine
    from repro.perf.cache import clear_all_caches

    os.environ["REPRO_CACHE_DIR"] = str(store)
    set_engine(None)
    clear_all_caches()


def run_child(argv: List[str], env: Dict[str, str], log: Path,
              timeout: float = CHILD_TIMEOUT_S) -> Tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MB)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
        return _reap(proc, start, timeout)


def _reap(proc: subprocess.Popen, start: float,
          timeout: float) -> Tuple[int, float, float]:
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sample_cold(run: Run, wall: float) -> None:
    """Record a timed cold operation of an in-process workload.  This
    process's peak RSS is read after the first one, so it does not
    depend on how many iterations fit in the run."""
    run.sample("cold_s", wall)
    if "peak_rss_mb" not in run.samples:
        run.sample("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def measure_setup(run: Run) -> None:
    """``setup_s``: fresh-interpreter start-up of the workload's surface."""
    argv = [sys.executable, "-m", "bench.worker", "--setup", run.name,
            "--seed", str(run.seed)]
    log = run.tmp / "setup.log"
    env = child_env(run.tmp / "setup-store")
    for probe in range(SETUP_PROBES + 1):
        code, wall, _ = run_child(argv, env, log)
        run.op(code == 0, f"set-up probe exited {code} (see {log})")
        if probe:
            run.sample("setup_s", wall)


def timed_loop(run: Run, cold: Callable[[], object],
               warm: Callable[[object], None]) -> None:
    """Cold iterations with warm replays until ``run.seconds`` is spent.

    An iteration starts only while one more is projected to end before
    the deadline.  At least one iteration always runs.  When only one
    fits, warm replays of its store fill the time left.  With several,
    the time left stays unused: replays bunched at the end of the run
    would outnumber the others, and one contention burst there would
    move the whole run's median.
    """
    deadline = time.perf_counter() + run.seconds
    iterations = 0
    while True:
        started = time.perf_counter()
        state = cold()
        for _ in range(WARM_PER_COLD):
            warm(state)
        iterations += 1
        cost = time.perf_counter() - started
        if run.problems or time.perf_counter() + cost > deadline:
            break
    while iterations == 1 and not run.problems:
        started = time.perf_counter()
        warm(state)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break


def rows_of(artifact) -> Tuple[list, list]:
    """An artifact's table as plain JSON values (dict or Artifact)."""
    data = artifact if isinstance(artifact, dict) else artifact.to_dict()
    return json.loads(json.dumps([data["columns"], data["rows"]]))


# ----------------------------------------------------------------------
# Tracing helpers
# ----------------------------------------------------------------------

def new_recorder(label: str):
    from bench.trace import Recorder

    return Recorder(f"w{os.getpid()}", label=label)


def maybe_span(recorder, name: str):
    """A span on ``recorder``, or nothing when the run is untraced."""
    from contextlib import nullcontext

    return nullcontext() if recorder is None else recorder.span(name)


def finish_trace(run: Run, recorder, child_traces: List[Path],
                 extra: Dict[str, float]) -> None:
    """Merge this process's and the children's spans into the run's
    per-layer metrics; every declared metric is present (0 if unused)."""
    from bench.trace import layer_metric_units, layer_metrics, read_records

    records = recorder.records()
    for path in child_traces:
        if path.exists():
            records.extend(read_records(path))
        else:
            run.check(False, f"traced child wrote no trace {path}")
    run.records = records
    metrics = {name: 0 for name in layer_metric_units()}
    metrics.update(layer_metrics(records))
    metrics.update(extra)
    run.layers = metrics


def untraced_figures(cold: float, warm: List[float],
                     rss_mb: float) -> Dict[str, float]:
    """The traced run's untraced cold operation, warm replays and peak
    memory, as the ``cold_s``, ``warm_s`` and ``peak_rss_mb`` per-layer
    metrics."""
    import statistics

    return {"cold_s": cold, "warm_s": statistics.median(warm),
            "peak_rss_mb": rss_mb}


def trace_in_process(run: Run, work,
                     wall_of: Callable[[object], float]) -> None:
    """The traced run of an in-process workload: an untimed cold
    operation (the first in a process runs slower), an untraced one and
    its warm replays, then a traced one and its warm replays."""
    from bench.trace import install

    work.cold()
    state = work.cold()
    untraced = wall_of(state)
    for _ in range(WARM_PER_COLD):
        work.warm(state)
    figures = untraced_figures(untraced, run.samples["warm_s"],
                               resource.getrusage(
                                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    work.recorder = new_recorder(f"{run.name}/traced")
    uninstall = install(work.recorder)
    try:
        state = work.cold()
        executed = work.executed
        for _ in range(WARM_PER_COLD):
            work.warm(state)
    finally:
        run.missing_targets = uninstall()
    finish_trace(run, work.recorder, [], {
        **figures, "eval.engine.executed_jobs": executed,
        "trace_overhead": wall_of(state) / untraced})


def traced_argv(recorder, span_id: str, trace_out: Path,
                cli_args: List[str]) -> List[str]:
    return [sys.executable, "-m", "bench.traced_entry", "--trace-out",
            str(trace_out), "--parent", span_id, "--label", recorder.label,
            "--", *cli_args]


# ----------------------------------------------------------------------
# paper_figs: the figure experiments through the CLI
# ----------------------------------------------------------------------

def paper_order(seed: int) -> List[str]:
    order = list(PAPER_EXPERIMENTS)
    random.Random(seed).shuffle(order)
    return order


class PaperFigs:
    """``repro run <figure experiments> --suite paper`` cold, then warm."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.order = paper_order(run.seed)
        self.reference: Optional[Dict[str, tuple]] = None
        self.peak_rss = 0.0
        self.recorder = None
        self.traces: List[Path] = []

    def cli_pass(self, store: Path, kind: str) -> float:
        """One checked CLI process; returns its wall time."""
        from repro.report import ArtifactError, validate_artifact_dict

        out = self.run.fresh_dir(f"out-{kind}")
        cli_args = ["run", *self.order, "--suite", PAPER_SUITE, "--out",
                    str(out), "--quiet"]
        log = out / "cli.log"
        if self.recorder is None:
            code, wall, rss = run_child(
                [sys.executable, "-m", "repro", *cli_args],
                child_env(store), log)
        else:
            trace_out = out / "trace.jsonl"
            self.traces.append(trace_out)
            with self.recorder.span(f"paper_figs.{kind}") as span_id:
                code, wall, rss = run_child(
                    traced_argv(self.recorder, span_id, trace_out, cli_args),
                    child_env(store), log)
        self.peak_rss = max(self.peak_rss, rss)
        self.run.op(code == 0, f"repro run exited {code} (see {log})")
        tables: Dict[str, tuple] = {}
        executed = failed = 0
        for name in self.order:
            try:
                data = json.loads((out / f"{name}.json").read_text())
                validate_artifact_dict(data)
            except (OSError, ValueError, ArtifactError) as exc:
                self.run.check(False, f"{kind} artifact {name}: {exc}")
                continue
            tables[name] = rows_of(data)
            executed += data["metadata"]["jobs"]["executed"]
            failed += data["metadata"]["jobs"]["failed"]
            if name == "speedup_table" and kind == "cold":
                self.run.extras["fig14_log_err"] = fig14_log_err(data)
        self.run.check(failed == 0, f"{kind} run reported failed jobs")
        if kind == "cold":
            self.run.check(executed > 0, "cold run executed no jobs")
        else:
            self.run.check(executed == 0,
                           f"warm run executed {executed} jobs")
        self.executed = executed
        if self.reference is None:
            self.reference = tables
        self.run.check(tables == self.reference,
                       f"{kind} tables differ from the first cold run")
        return wall

    def cold(self) -> Path:
        store = self.run.fresh_dir("store")
        self.run.sample("cold_s", self.cli_pass(store, "cold"))
        return store

    def warm(self, store: Path) -> None:
        self.run.sample("warm_s", self.cli_pass(store, "warm"))


def fig14_log_err(speedup_artifact: Dict) -> float:
    """Mean |ln(measured / paper)| of Fig. 14's baseline geomeans."""
    import math

    from bench.paper_ref import FIG14_GEOMEAN_SPEEDUP

    geomean = next(row for row in speedup_artifact["rows"]
                   if row["row"] == "geomean")
    return sum(abs(math.log(geomean[name] / paper))
               for name, paper in FIG14_GEOMEAN_SPEEDUP.items()
               ) / len(FIG14_GEOMEAN_SPEEDUP)


def run_paper_figs(run: Run) -> None:
    work = PaperFigs(run)
    if not run.trace:
        measure_setup(run)
        timed_loop(run, work.cold, work.warm)
        run.sample("peak_rss_mb", work.peak_rss)
        return
    store = run.fresh_dir("store")
    untraced = work.cli_pass(store, "cold")
    warm = [work.cli_pass(store, "warm") for _ in range(WARM_PER_COLD)]
    figures = untraced_figures(untraced, warm, work.peak_rss)
    work.recorder = new_recorder("paper_figs/traced")
    store = run.fresh_dir("store")
    traced = work.cli_pass(store, "cold")
    executed = work.executed
    for _ in range(WARM_PER_COLD):
        work.cli_pass(store, "warm")
    finish_trace(run, work.recorder, work.traces, {
        **figures, "eval.engine.executed_jobs": executed,
        "trace_overhead": traced / untraced})


# ----------------------------------------------------------------------
# dse_grid: a design-space sweep through the library API
# ----------------------------------------------------------------------

def dse_targets(seed: int) -> List[float]:
    rng = random.Random(seed)
    targets = set()
    while len(targets) < DSE_TARGETS:
        targets.add(round(rng.uniform(2.5, 7.5), 4))
    return sorted(targets)


def dse_jobs(seed: int) -> list:
    from repro.eval.engine import SimJob

    return [SimJob.from_call(name, DSE_DATASET, "gcn",
                             target_average_bits=target)
            for name in DSE_ACCELERATORS for target in dse_targets(seed)]


def scalar_oracle(job):
    """The job simulated on the scalar path, bypassing engine and batch."""
    from repro.perf.cache import cached_load_dataset
    from repro.registry import get_accelerator
    from repro.sim.workload import build_workload

    workload = build_workload(
        job.dataset, job.model, job.precision, seed=job.seed,
        graph=cached_load_dataset(job.dataset, scale="sim", seed=job.seed),
        target_average_bits=job.target_average_bits)
    return get_accelerator(job.accelerator).build(
        **dict(job.variant)).simulate(workload)


class DseGrid:
    """Cold ``SweepEngine(workers=0).run`` of the grid, then replays."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.jobs = dse_jobs(run.seed)
        self.reference = None
        self.recorder = None

    def _sweep(self, engine, kind: str):
        try:
            with maybe_span(self.recorder, f"dse_grid.{kind}"):
                started = time.perf_counter()
                reports = engine.run(self.jobs)
                wall = time.perf_counter() - started
        except Exception as exc:  # a failed sweep is a failed operation
            self.run.op(False, f"{kind} sweep raised {type(exc).__name__}: "
                               f"{exc}")
            return None, 0.0
        self.run.op(len(reports) == len(self.jobs),
                    f"{kind} sweep returned {len(reports)} of "
                    f"{len(self.jobs)} reports")
        return reports, wall

    def cold(self):
        from repro.eval.engine import SweepEngine

        use_store(self.run.fresh_dir("store"))
        engine = SweepEngine(workers=0)
        engine.clear_memory()            # the workload memo is module-level
        reports, wall = self._sweep(engine, "cold")
        self.run.check(engine.executed_jobs == len(self.jobs),
                       f"cold sweep executed {engine.executed_jobs} jobs")
        self.executed = engine.executed_jobs
        if reports is not None:
            if self.reference is None:
                self.reference = reports
            self.run.check(all(reports[job] == self.reference[job]
                               for job in self.jobs),
                           "cold sweep differs from the first cold sweep")
        return engine, reports, wall

    def warm(self, state) -> None:
        from repro.perf.cache import clear_all_caches

        engine, cold_reports, _ = state
        engine.clear_memory()
        clear_all_caches()
        reports, wall = self._sweep(engine, "warm")
        self.run.sample("warm_s", wall)
        self.run.check(engine.executed_jobs == 0,
                       f"warm replay executed {engine.executed_jobs} jobs")
        if reports is not None and cold_reports is not None:
            self.run.check(all(reports[job] == cold_reports[job]
                               for job in self.jobs),
                           "warm replay differs from its cold sweep")

    def timed_cold(self):
        state = self.cold()
        sample_cold(self.run, state[2])
        return state

    def check_oracle(self) -> None:
        from repro.perf.cache import clear_all_caches

        if self.reference is None:
            return
        clear_all_caches()
        for job in self.jobs[::ORACLE_STRIDE]:
            self.run.check(scalar_oracle(job) == self.reference[job],
                           f"batched sweep differs from the scalar oracle "
                           f"on {job}")


def run_dse_grid(run: Run) -> None:
    work = DseGrid(run)
    if run.trace:
        trace_in_process(run, work, wall_of=lambda state: state[2])
    else:
        measure_setup(run)
        work.cold()                      # untimed warm-up
        timed_loop(run, work.timed_cold, work.warm)
    work.check_oracle()


# ----------------------------------------------------------------------
# table6_train: Table VI training through the library API
# ----------------------------------------------------------------------

class Table6Train:
    """Cold ``accuracy_comparison`` training, then replays."""

    def __init__(self, run: Run) -> None:
        from repro.nn import TrainConfig

        self.run = run
        self.config = TrainConfig(epochs=TABLE6_EPOCHS, patience=10_000)
        self.reference = None
        self.recorder = None

    def _experiment(self, kind: str) -> float:
        """One checked ``run_experiment`` call; returns its wall time."""
        from repro.report import run_experiment

        try:
            with maybe_span(self.recorder, f"table6_train.{kind}"):
                started = time.perf_counter()
                artifact = run_experiment(
                    "accuracy_comparison", cases=TABLE6_CASES, quick=True,
                    config=self.config, seed=self.run.seed)
                wall = time.perf_counter() - started
        except Exception as exc:  # a failed run is a failed operation
            self.run.op(False, f"{kind} run raised {type(exc).__name__}: "
                               f"{exc}")
            return 0.0
        jobs = artifact.metadata["jobs"]
        self.run.op(jobs["failed"] == 0, f"{kind} run had failed jobs")
        expected = len(TABLE6_CASES) * 3 if kind == "cold" else 0
        self.run.check(jobs["trained"] == expected,
                       f"{kind} run trained {jobs['trained']} models, "
                       f"expected {expected}")
        self.executed = jobs["trained"]
        tables = rows_of(artifact)
        if self.reference is None:
            self.reference = tables
            self.run.extras.update(table6_fidelity(artifact))
        self.run.check(tables == self.reference,
                       f"{kind} results differ from the first cold run")
        return wall

    def cold(self):
        use_store(self.run.fresh_dir("store"))
        return self._experiment("cold")

    def warm(self, _state=None) -> None:
        from repro.eval.engine import get_engine
        from repro.perf.cache import clear_all_caches

        get_engine().clear_memory()
        clear_all_caches()
        self.run.sample("warm_s", self._experiment("warm"))

    def timed_cold(self) -> None:
        sample_cold(self.run, self.cold())


def table6_fidelity(artifact) -> Dict[str, float]:
    """Degree-Aware accuracy and compression ratio of the first case."""
    dataset, model = TABLE6_CASES[0]
    row = next(row for row in artifact.rows
               if row["row"] == f"{dataset}-{model}/degree-aware")
    return {"table6_da_acc": row["accuracy"], "table6_da_cr": row["cr"]}


def run_table6_train(run: Run) -> None:
    work = Table6Train(run)
    if run.trace:
        trace_in_process(run, work, wall_of=lambda wall: wall)
    else:
        measure_setup(run)
        timed_loop(run, work.timed_cold, work.warm)


# ----------------------------------------------------------------------
# serve_mixed: a repro serve daemon under two closed-loop clients
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process on an empty store."""

    def __init__(self, run: Run, recorder=None) -> None:
        self.recorder = recorder
        self.span = None
        self.trace_out: Optional[Path] = None
        work = run.fresh_dir("daemon")
        self.log = work / "serve.log"
        port_file = work / "port"
        cli_args = ["serve", "--port", "0", "--port-file", str(port_file),
                    "--quiet"]
        if recorder is None:
            argv = [sys.executable, "-m", "repro", *cli_args]
        else:
            self.trace_out = work / "trace.jsonl"
            self.span = recorder.begin("serve_mixed.daemon")
            argv = traced_argv(recorder, self.span[0], self.trace_out,
                               cli_args)
        started = time.perf_counter()
        with open(self.log, "ab") as out:
            self.proc = subprocess.Popen(argv, env=child_env(work / "store"),
                                         cwd=ROOT, stdout=out,
                                         stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_ready(port_file, started)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_ready(self, port_file: Path, started: float) -> int:
        while time.perf_counter() - started < CHILD_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} "
                                   f"before ready (see {self.log})")
            try:
                port = int(port_file.read_text())
                if self.get("/readyz", port)[0] == 200:
                    return port
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError(f"daemon not ready in {CHILD_TIMEOUT_S:g}s")

    def get(self, path: str, port: Optional[int] = None):
        conn = http.client.HTTPConnection("127.0.0.1", port or self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def post(self, body: Dict) -> Tuple[int, Optional[Dict], float]:
        """POST /run; returns (status, payload, latency s).  Status 0 is
        a transport error."""
        data = json.dumps(body).encode()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=CHILD_TIMEOUT_S)
        started = time.perf_counter()
        try:
            conn.request("POST", "/run", body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            latency = time.perf_counter() - started
            return response.status, json.loads(raw), latency
        except (OSError, http.client.HTTPException, ValueError):
            return 0, None, time.perf_counter() - started
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark so far."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        code, _, _ = _reap(self.proc, time.perf_counter(), CHILD_TIMEOUT_S)
        if self.span is not None:
            self.recorder.end(self.span)
            self.span = None
        return code


@dataclass
class Served:
    """One client's view of the closed loop."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"warm": [], "cold": []})
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: List[Tuple[Dict, tuple]] = field(default_factory=list)
    rss_mb: Optional[float] = None


def _request_ok(status: int, payload: Optional[Dict]) -> Optional[str]:
    """None if the response is a complete, valid, failure-free result."""
    from repro.report import ArtifactError, validate_artifact_dict

    if status != 200 or payload is None:
        return f"status {status}"
    if payload.get("failed"):
        return "response reports failed jobs"
    try:
        validate_artifact_dict(payload.get("artifact"))
    except ArtifactError as exc:
        return f"invalid artifact: {exc}"
    return None


def _client(daemon: Daemon, seed: int, client: int, deadline: float,
            served: Served, cold_done: Iterator[int],
            rss_at: Dict[str, float]) -> None:
    # Each client has its own RNG stream and cold targets are unique, so
    # concurrent requests are rarely identical and the daemon's in-flight
    # dedup stays incidental.
    rng = random.Random(f"serve_mixed:{seed}:{client}")
    cold_seen = 0
    while time.perf_counter() < deadline:
        if rng.random() < SERVE_COLD_SHARE:
            kind = "cold"
            body = {"experiment": "cr_sensitivity",
                    "params": {"targets": [2.5 + 5.0 * rng.random()]}}
        else:
            kind = "warm"
            body = dict(rng.choice(SERVE_WARM_SPECS))
        status, payload, latency = daemon.post(body)
        served.attempted += 1
        if kind == "cold" and next(cold_done) == SERVE_RSS_AFTER_COLD:
            rss_at["mb"] = daemon.peak_rss_mb()
        problem = _request_ok(status, payload)
        if problem is not None:
            served.failed += 1
            served.problems.append(f"{body['experiment']}: {problem}")
            continue
        served.latencies[kind].append(latency)
        if kind == "cold" and cold_seen < SERVE_REFERENCE_SAMPLES:
            cold_seen += 1
            served.samples.append((body, rows_of(payload["artifact"])))


def closed_loop(run: Run, daemon: Daemon, seconds: float) -> Served:
    """Untimed warm-up of the warm specs, then the clients until the
    deadline.  The warm-up answers seed the reference samples."""
    merged = Served()
    for body in SERVE_WARM_SPECS:
        status, payload, _ = daemon.post(body)
        problem = _request_ok(status, payload)
        run.op(problem is None, f"warm-up {body['experiment']}: {problem}")
        if problem is None:
            merged.samples.append((body, rows_of(payload["artifact"])))
    deadline = time.perf_counter() + seconds
    clients = [Served() for _ in range(SERVE_CLIENTS)]
    cold_done = itertools.count(1)
    rss_at: Dict[str, float] = {}
    threads = [threading.Thread(target=_client,
                                args=(daemon, run.seed, i, deadline, served,
                                      cold_done, rss_at))
               for i, served in enumerate(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    merged.rss_mb = rss_at.get("mb") or daemon.peak_rss_mb()
    for served in clients:
        for kind in ("warm", "cold"):
            merged.latencies[kind].extend(served.latencies[kind])
        merged.attempted += served.attempted
        merged.failed += served.failed
        merged.problems.extend(served.problems)
        merged.samples.extend(served.samples)
    run.attempted += merged.attempted
    run.failed += merged.failed
    for problem in merged.problems:
        run.check(False, problem)
    completed = sum(len(v) for v in merged.latencies.values())
    run.extras["req_rps"] = completed / elapsed
    for kind in ("warm", "cold"):
        run.check(bool(merged.latencies[kind]), f"no {kind} request completed")
    return merged


def check_served(run: Run, samples: List[Tuple[Dict, tuple]]) -> None:
    """Re-compute sampled served artifacts in-process on an empty store."""
    from repro.report import run_experiment, run_suite_experiment

    use_store(run.fresh_dir("reference"))
    for body, served_rows in samples:
        params = body.get("params") or {}
        if body.get("suite") is not None:
            artifact = run_suite_experiment(body["experiment"], body["suite"],
                                            **params)
        else:
            artifact = run_experiment(body["experiment"], **params)
        run.check(rows_of(artifact) == served_rows,
                  f"served {body['experiment']} {params} differs from the "
                  f"in-process result")


def stop_daemon(run: Run, daemon: Daemon) -> None:
    code = daemon.stop()
    run.check(code == 0, f"daemon drained with exit {code} "
                         f"(see {daemon.log})")


def run_serve_mixed(run: Run) -> None:
    from bench.stats import tail

    if not run.trace:
        stop_daemon(run, Daemon(run))    # untimed probe
        daemon = None
        try:
            for _ in range(SETUP_PROBES):
                if daemon is not None:
                    stop_daemon(run, daemon)
                daemon = Daemon(run)
                run.sample("setup_s", daemon.ready_s)
            served = closed_loop(run, daemon, run.seconds)
        finally:
            if daemon is not None:
                stop_daemon(run, daemon)
        run.sample("peak_rss_mb", served.rss_mb)
        for kind in ("warm", "cold"):
            run.samples[f"{kind}_s"] = served.latencies[kind]
            run.extras[f"req_{kind}_tail_s"] = tail(served.latencies[kind])
        check_served(run, served.samples[:SERVE_REFERENCE_SAMPLES])
        return

    import statistics

    from bench.trace import durations_ms

    half = run.seconds / 2.0
    daemon = Daemon(run)
    try:
        untraced = closed_loop(run, daemon, half)
    finally:
        stop_daemon(run, daemon)
    recorder = new_recorder("serve_mixed/traced")
    daemon = Daemon(run, recorder)
    try:
        traced = closed_loop(run, daemon, half)
    finally:
        stop_daemon(run, daemon)
    check_served(run, traced.samples[:len(SERVE_WARM_SPECS) + 1])
    finish_trace(run, recorder, [daemon.trace_out], {})
    server_ms = statistics.median(
        durations_ms(run.records, "report.run_experiment"))
    client_ms = statistics.median(
        [1e3 * x for kind in ("warm", "cold")
         for x in traced.latencies[kind]])
    run.layers.update(untraced_figures(
        statistics.median(untraced.latencies["cold"]),
        untraced.latencies["warm"], untraced.rss_mb))
    run.layers.update({
        "serve.server_run_ms": server_ms,
        "serve.overhead_ms": client_ms - server_ms,
        "trace_overhead": (statistics.median(traced.latencies["warm"])
                           / statistics.median(untraced.latencies["warm"])),
    })


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

RUNNERS = {"paper_figs": run_paper_figs, "dse_grid": run_dse_grid,
           "table6_train": run_table6_train, "serve_mixed": run_serve_mixed}


def setup_probe(name: str, seed: int) -> None:
    """Import what workload ``name`` drives and build its inputs."""
    if name == "paper_figs":
        import repro.cli  # noqa: F401
    elif name == "dse_grid":
        dse_jobs(seed)
    elif name == "table6_train":
        from repro.nn import TrainConfig
        from repro.report import run_experiment  # noqa: F401

        TrainConfig(epochs=TABLE6_EPOCHS, patience=10_000)
    else:
        raise SystemExit(f"no set-up probe for {name!r}")


def versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--setup", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    if args.setup:
        setup_probe(args.setup, args.seed)
        return 0
    if not (args.workload and args.tmp and args.result):
        parser.error("--workload, --tmp and --result are required")

    run = Run(name=args.workload, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), tmp=args.tmp)
    # Nothing in this process may fall back to the user's cache.
    os.environ["REPRO_CACHE_DIR"] = str(args.tmp / "default-store")
    started = time.perf_counter()
    try:
        RUNNERS[run.name](run)
    except Exception as exc:  # report, never hang the runner
        import traceback

        traceback.print_exc()
        run.op(False, f"workload raised {type(exc).__name__}: {exc}")
    trace_path = None
    if run.records:
        trace_path = run.tmp / "trace.jsonl"
        with open(trace_path, "w") as fh:
            for record in run.records:
                fh.write(json.dumps(record) + "\n")
    result = {
        "workload": run.name, "seed": run.seed, "trace": run.trace,
        "seconds": run.seconds, "wall_s": time.perf_counter() - started,
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems,
        "samples": run.samples, "extras": run.extras, "layers": run.layers,
        "missing_targets": run.missing_targets, "trace_file": (
            str(trace_path) if trace_path else None),
        "versions": versions(),
    }
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
