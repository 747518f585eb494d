"""Declarative job engine for simulation *and* training sweeps.

Every table and figure in :mod:`repro.eval.experiments` boils down to a
set of independent ``simulate one workload on one accelerator`` jobs,
and every accuracy table in :mod:`repro.eval.accuracy` to a set of
``train one (dataset, model) under one quantization flow and seed``
jobs.  This module makes both sets explicit — a :class:`SimJob` names
the accelerator, dataset, model, precision variant and quantization
target; a :class:`TrainJob` names the dataset, model, quantization flow
(with frozen flow kwargs), seed and a :class:`~repro.nn.TrainConfig`
digest — and :class:`SweepEngine` executes deduplicated batches of
either kind.  Accelerators and datasets resolve through
:mod:`repro.registry` (config factories and loaders registered by the
subsystems themselves), so a job over any registered scenario — paper
stand-in, synthetic scale sweep, or user-defined — flows through the
same three layers:

1. an in-process memory cache (same object returned for repeat jobs, so
   figure scripts sharing a sweep stay cheap and identity-stable), which
   keeps each result's artifact id beside it, so an experiment lists
   its own jobs' ids (:meth:`SweepEngine.artifact_ids`);
2. a persistent, content-addressed artifact store
   (:class:`repro.artifacts.ArtifactStore`): each completed job
   publishes as a first-class artifact (kind ``sim-report`` or
   ``train-result``) whose inputs are the job's content — the
   simulated graph's CSR fingerprint, the registry cache tokens, the
   full job recipe — and whose producer is the
   :func:`~repro.perf.cache.code_version` digest.  That artifact id is
   the job's one key (:meth:`SweepEngine.job_fingerprint`): the store,
   the remote tier and the run journal all use it.  A second
   process (another figure script, another CI step, a machine that
   imported the corpus) replays a sweep without re-simulating, any code
   change invalidates every entry, and corrupt entries are quarantined
   and rebuilt rather than served.  The cheap derived values (graph
   fingerprints and tables) are ``memo`` artifacts in the same store,
   which is the process-wide :func:`~repro.artifacts.artifact_store`
   unless the engine is given its own ``cache_dir``.  Workloads are
   not persisted: each process builds a recipe's structure once, derives
   each quantization target's workload from it, and keeps both in
   memory (``_WORKLOAD_MEMO``);
3. actual execution, *supervised* (see :mod:`repro.eval.supervise`):
   serially with per-job deadlines and bounded retries, or fanned out
   over forked worker processes the supervisor owns — simulation jobs
   chunked per dataset (so a worker amortizes dataset + workload
   construction), training jobs one per chunk (each is minutes of work;
   the (case × flow × seed) grid is the parallel axis).  Workers are
   forked *after* the parent resolved the dataset fingerprints, so they
   inherit the warm dataset caches, and they stream one result message
   per finished job — a worker that is SIGKILLed or hangs loses only
   its in-flight job (killed by the watchdog, retried with exponential
   backoff), never work that already completed.  Any failure to stand
   up subprocesses falls back to the supervised serial path.

Every completed job is persisted to the artifact store (and the run journal,
when one is attached) *as it lands*, so an interrupted sweep is a
checkpoint: rerunning the same batch — or ``repro run --resume
<run-id>`` — executes only the jobs that never finished.  Jobs that
exhaust their retry budget either raise (``on_error="raise"``, the
default for direct ``run()`` calls and the CLI's ``--fail-fast``) or
degrade gracefully (``on_error="degrade"``): the sweep completes, the
failure is recorded as a :class:`~repro.eval.supervise.JobFailure` in
``SweepEngine.failures``, and :func:`repro.report.run_experiment` turns
those into the artifact's structured ``errors`` metadata alongside the
partial rows.

Training results are bit-identical across the serial, parallel and
cache-replay paths: every flow seeds its own RNG streams from the job's
``seed`` and inference forwards are side-effect-free, so a ``TrainJob``
is a pure function of its fields plus the code version every artifact
id embeds.

Settings are :class:`SweepEngine` constructor arguments, which ``repro
run``/``repro serve`` set from their flags: ``workers`` (``0``/``1`` =
serial, the default), ``retries`` (retry budget per job after a
failure, timeout or worker death; default 0), ``timeout`` (per-job
deadline in seconds, enforced in-process via SIGALRM and backstopped by
the supervisor's watchdog kill for worker processes; default 0:
disabled) and ``backoff`` (base of the exponential retry backoff,
default 0.05 s; attempt ``n`` waits ``backoff * 2**n``).  The
environment names only where things live:
``REPRO_CACHE_DIR`` is the root of the artifact store (default
``~/.cache/repro``) and ``REPRO_REMOTE_URL`` a ``repro serve`` daemon
to fetch missing results from.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar)

from .. import faults
from ..artifacts import ArtifactStore, artifact_store, derive_artifact_id
from ..perf.cache import (ContentCache, cached_load_dataset, clear_all_caches,
                          graph_fingerprint)
from ..registry import get_accelerator, get_dataset
from .supervise import JobFailure, Supervisor, run_serial

if TYPE_CHECKING:
    from ..nn.config import TrainConfig
    from ..sim.accelerator import SimReport
    from ..sim.workload import Workload

__all__ = ["SimJob", "TrainJob", "SweepEngine", "get_engine", "set_engine",
           "temporary_cache_dir"]

T = TypeVar("T")

# What executing a job imports beyond what resolving a stored result
# needs (a warm re-run never loads these, nor scipy.sparse).
# SweepEngine.run imports them before its first pending job, so the
# import lands neither inside a job's deadline nor in every forked
# worker.
_EXECUTION_MODULES = ("repro.graphs.generators", "repro.graphs.partition",
                      "repro.mega.condense", "repro.sim.workload",
                      "repro.sim.locality", "repro.quant.flows")


@dataclass(frozen=True)
class SimJob:
    """One (accelerator, dataset, model, variant) simulation request."""

    accelerator: str
    dataset: str
    model: str
    variant: Tuple[Tuple[str, object], ...] = ()
    target_average_bits: Optional[float] = None
    seed: int = 0

    @classmethod
    def from_call(cls, accelerator: str, dataset: str, model: str,
                  mega_kwargs: Optional[Dict[str, object]] = None,
                  target_average_bits: Optional[float] = None,
                  seed: int = 0) -> "SimJob":
        variant = tuple(sorted((mega_kwargs or {}).items()))
        return cls(accelerator.lower(), dataset.lower(), model.lower(),
                   variant, target_average_bits, seed)

    @property
    def precision(self) -> str:
        """The workload precision the paper pairs with this accelerator
        (registry metadata, not a name pattern)."""
        return get_accelerator(self.accelerator).precision


@dataclass(frozen=True)
class TrainJob:
    """One ``train (dataset, model) under flow with seed`` request.

    ``flow_kwargs`` and ``config`` are stored in the frozen primitive
    form produced by :func:`repro.quant.config.freeze_value`, so a job is
    hashable (memory cache key), JSON-canonical (its artifact id) and
    picklable (pool workers); :meth:`from_call` freezes, execution
    thaws.
    """

    dataset: str
    model: str
    flow: str
    flow_kwargs: Tuple = ()
    config: Tuple = ()
    seed: int = 0
    scale: str = "train"
    # Seed of the synthetic dataset generation; None follows ``seed``
    # (the tables' convention: one seed drives graph + model init).
    # ``train_multiple_seeds`` pins it so several model seeds share one
    # graph.
    graph_seed: Optional[int] = None

    @classmethod
    def from_call(cls, dataset: str, model: str, flow: str,
                  flow_kwargs: Optional[Dict[str, object]] = None,
                  config: Optional[TrainConfig] = None,
                  seed: int = 0, scale: str = "train",
                  graph_seed: Optional[int] = None) -> "TrainJob":
        from ..nn.config import TrainConfig
        from ..quant.config import TRAIN_FLOW_NAMES, freeze_value

        if flow not in TRAIN_FLOW_NAMES:
            raise ValueError(
                f"unknown training flow {flow!r}; expected one of "
                f"{sorted(TRAIN_FLOW_NAMES)}")
        frozen_kwargs = tuple(sorted(
            (key, freeze_value(value))
            for key, value in (flow_kwargs or {}).items()))
        return cls(dataset.lower(), model.lower(), flow, frozen_kwargs,
                   freeze_value(config or TrainConfig()), seed, scale,
                   graph_seed)

    @property
    def dataset_seed(self) -> int:
        return self.seed if self.graph_seed is None else self.graph_seed


# The one cache of built workloads, shared by every job of one
# (dataset, model, precision, target, seed) in a process and by
# ``get_workload``, beside each recipe's structure they derive from.
# Module-level (not on the engine) so forked workers reuse whatever the
# parent already built; nothing persists it.
_WORKLOAD_MEMO = ContentCache("workloads")


def _workload(dataset: str, model: str, precision: str, seed: int,
              target: Optional[float]) -> Workload:
    """The workload of one recipe at one quantization target, memoized.

    A recipe is one (dataset, model, seed), the dataset keyed by its
    registered entry's cache token.  Its
    :class:`~repro.sim.workload.WorkloadStructure` is built once and
    every (precision, target) workload derives from it, so all jobs of
    one (dataset, model, precision, target, seed) in this process get
    the same :class:`~repro.sim.workload.Workload`.  Simulators memoize
    a layer's row statistics on it, so accelerators that agree on what
    those depend on (``mega`` and ``mega-no-condense``) share them.
    """
    recipe = (get_dataset(dataset).cache_token, model.lower(), seed)
    key = recipe + (precision, target)
    workload = _WORKLOAD_MEMO.get(key)
    if workload is None:
        from ..sim.workload import workload_structure

        structure = _WORKLOAD_MEMO.get_or_compute(
            recipe, lambda: workload_structure(
                dataset, model, seed=seed,
                graph=cached_load_dataset(dataset, scale="sim", seed=seed)))
        workload = _WORKLOAD_MEMO.put(
            key, structure.workload(precision, target))
    return workload


def _execute_train_job(job: TrainJob):
    """Load the training-scale graph and run the job's flow on it."""
    from ..quant.config import thaw_value
    from ..quant.flows import TRAIN_FLOWS

    graph = cached_load_dataset(job.dataset, scale=job.scale,
                                seed=job.dataset_seed)
    config = thaw_value(job.config)
    kwargs = {key: thaw_value(value) for key, value in job.flow_kwargs}
    return TRAIN_FLOWS[job.flow](job.model, graph, config=config,
                                 seed=job.seed, **kwargs)


def _execute_job(job, attempt: int = 0):
    """Execute one job of either kind (dispatch on the job type).

    Simulation jobs resolve their accelerator through the registry, so
    a registered scenario never needs an engine edit; variant kwargs
    are rejected by entries that declare a fixed configuration.

    ``attempt`` is the retry ordinal the supervision layer passes in;
    the fault-injection harness (:mod:`repro.faults`) keys on it so
    injected failures fire only on a job's first attempt.
    """
    injector = faults.active_injector()
    if injector is not None:
        injector.on_job(repr(job), attempt)
    if isinstance(job, TrainJob):
        return _execute_train_job(job)
    workload = _workload(job.dataset, job.model, job.precision, job.seed,
                         job.target_average_bits)
    entry = get_accelerator(job.accelerator)
    # entry.build rejects variant kwargs on fixed-configuration presets.
    return entry.build(**dict(job.variant)).simulate(workload)


# Simulation jobs over datasets at least this large chunk per job
# instead of per dataset: one 500k-node scenario's simulations then fan
# out across the pool instead of serializing inside a single worker.
_CHUNK_SPLIT_NODES = 100_000


def _chunk_key(job):
    """Pool chunking granularity.

    Simulation jobs group per (dataset, seed) so one worker amortizes
    dataset/workload construction across accelerators — except on huge
    scenarios (the dataset entry's ``size_hint`` at or above
    ``_CHUNK_SPLIT_NODES``, 100k nodes), where each job is its own
    chunk: per-job simulation cost dwarfs the amortized
    construction there, and large partitions persist to the shared
    artifact store, so the workers do not repeat those.  Training
    jobs are each their own chunk — a single training run is the
    expensive unit and the (case × flow × seed) grid is the axis worth
    parallelizing.
    """
    if isinstance(job, TrainJob):
        return job
    if get_dataset(job.dataset).size_hint >= _CHUNK_SPLIT_NODES:
        return job
    return (job.dataset, job.seed)


class SweepEngine:
    """Deduplicating, caching, supervised (optionally parallel) runner."""

    def __init__(self, workers: int = 0,
                 cache_dir: Optional[os.PathLike] = None,
                 retries: int = 0, timeout: float = 0.0,
                 backoff: float = 0.05, journal=None,
                 remote=None) -> None:
        self.workers = max(int(workers), 0)
        # job -> (result, the artifact id it is stored under, or None
        # when the publish failed).
        self.reports = ContentCache("job_results")
        self.tables = ContentCache("tables")
        # Everything persistent is a content-addressed artifact (id
        # derived from its inputs + the code version): job results
        # (kind "sim-report"/"train-result") and the cheap derived memos
        # — graph fingerprints and tables (kind "memo") — with
        # manifest-backed integrity, quarantine and export/import.
        # Without a cache_dir that is the process-wide store, so the
        # engine, the partition cache, serve and the CLI share one set
        # of counters, one read-only latch and one quarantine warning.
        self.artifacts = (artifact_store() if cache_dir is None
                          else ArtifactStore(directory=cache_dir))
        # Optional remote read-through tier (memory → artifacts → remote
        # → execute): when REPRO_REMOTE_URL names a `repro serve` daemon,
        # fresh machines pull admitted artifacts instead of executing.
        # An explicit `remote=` wins; without either, the HTTP client
        # is never imported.
        if remote is None and os.environ.get("REPRO_REMOTE_URL", "").strip():
            from ..remote import remote_store_from_env
            remote = remote_store_from_env(self.artifacts)
        self.remote = remote
        # Supervision policy, read at run time: the CLI sets these for
        # one invocation and restores them afterwards.
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        # Optional RunJournal: completed/failed jobs are appended as
        # they land, making any run resumable by id.  Or ``open_journal``
        # makes it at the first pending job, before any job starts.
        self.journal = journal
        self.open_journal: Optional[Callable] = None
        self.executed_jobs = 0
        # Models actually trained by this engine (TrainJobs that reached
        # the execute layer; cache-resolved jobs never count).
        self.executed_train_jobs = 0
        # True once worker processes actually executed jobs (stays False
        # when the serial path or a fallback ran instead).
        self.pool_used = False
        # Jobs that exhausted their retry budget in degrade mode
        # (accumulates across run() calls; cleared by clear_memory).
        self.failures: List[JobFailure] = []

    def _note_executed(self, jobs: Sequence) -> None:
        self.executed_jobs += len(jobs)
        self.executed_train_jobs += sum(
            1 for job in jobs if isinstance(job, TrainJob))

    def _memo(self, key: tuple, compute: Callable[[], T]) -> T:
        """Memory-then-store memoization of a derived value: the store
        keeps it as a ``memo`` artifact keyed on ``key``."""
        return self.tables.get_or_compute(
            key, lambda: self.artifacts.get_or_build(
                "memo", {"key": list(key)}, compute)[0])

    # -- fingerprints ------------------------------------------------------
    def dataset_fingerprint(self, dataset: str, seed: int = 0,
                            scale: str = "sim") -> str:
        """CSR fingerprint of the ``scale`` graph for ``dataset``.

        Memoized in memory and as a ``memo`` artifact keyed by the
        dataset entry's cache token (its whole recipe), the scale and
        the seed: synthetic generation is deterministic in those, so
        warm runs — and stores that imported a corpus — resolve the
        fingerprint without regenerating the graph at all, and a
        re-registered recipe misses.
        """
        def compute() -> str:
            graph = cached_load_dataset(dataset, scale=scale, seed=seed)
            return graph_fingerprint(graph.adjacency)

        key = ("graph-fp", get_dataset(dataset).cache_token, scale, seed)
        return self._memo(key, compute)

    def _job_key(self, job) -> Tuple[str, Dict]:
        """The ``(kind, inputs)`` a job's result is stored under:
        input-graph content, the registry entries' cache tokens and the
        full job recipe (the code version — covering every
        model/flow/trainer source file — enters the id as its producer;
        the tokens cover runtime-registered accelerators/scenarios the
        source digest cannot see)."""
        dataset_token = get_dataset(job.dataset).cache_token
        if isinstance(job, TrainJob):
            return "train-result", {
                "graph": self.dataset_fingerprint(job.dataset,
                                                  job.dataset_seed, job.scale),
                "dataset_token": dataset_token, "model": job.model,
                "flow": job.flow, "flow_kwargs": job.flow_kwargs,
                "config": job.config, "seed": job.seed}
        return "sim-report", {
            "graph": self.dataset_fingerprint(job.dataset, job.seed),
            "dataset_token": dataset_token,
            "accelerator_token": get_accelerator(job.accelerator).cache_token,
            "accelerator": job.accelerator, "model": job.model,
            "precision": job.precision, "variant": job.variant,
            "target_average_bits": job.target_average_bits, "seed": job.seed}

    def job_fingerprint(self, job) -> str:
        """The job's one key: the artifact id its result is stored,
        fetched and journaled under."""
        return derive_artifact_id(*self._job_key(job))

    def artifact_ids(self, jobs: Sequence) -> Dict[str, str]:
        """``{artifact id: kind}`` of the stored results of ``jobs`` held
        in memory, sorted by id: an experiment's provenance."""
        ids = {}
        for job in jobs:
            _report, art_id = self.reports.peek(job, (None, None))
            if art_id is not None:
                ids[art_id] = self._job_kind(job)
        return dict(sorted(ids.items()))

    @staticmethod
    def _job_kind(job) -> str:
        return "train-result" if isinstance(job, TrainJob) else "sim-report"

    # -- execution ---------------------------------------------------------
    def run(self, jobs: Sequence, on_error: str = "raise") -> Dict:
        """Execute a batch of jobs (of either kind), deduplicated,
        through the memory → artifact store → execute stack.

        ``on_error="raise"`` (the default) re-raises the first job
        failure once everything already completed has been stored;
        ``on_error="degrade"`` finishes the batch, records exhausted
        jobs in :attr:`failures` (and the journal), and returns the
        partial result map.
        """
        if on_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_error must be 'raise' or 'degrade', not {on_error!r}")
        unique = list(dict.fromkeys(jobs))
        results: Dict = {}
        pending: Dict = {}       # job -> artifact id
        sentinel = object()
        for job in unique:
            entry = self.reports.get(job)
            if entry is not None:
                results[job] = entry[0]
                continue
            art_id = self.job_fingerprint(job)
            cached = self.artifacts.get(art_id, sentinel)
            if cached is sentinel and self.remote is not None:
                cached = self.remote.fetch(art_id, sentinel)
            if cached is not sentinel:
                self.reports.put(job, (cached, art_id))
                results[job] = cached
                continue
            if self.journal is None and self.open_journal is not None:
                self.journal = self.open_journal()
            pending[job] = art_id

        if pending:
            for module in _EXECUTION_MODULES:
                importlib.import_module(module)
            fail_fast = on_error == "raise"
            if self.workers > 1 and len(pending) > 1:
                failures = self._run_parallel(pending, results, fail_fast)
            else:
                failures = self._run_serial(pending, results, fail_fast)
            for failure in failures:
                self._record_failure(failure)
        return results

    def _safe_fingerprint(self, job) -> str:
        """The job's content fingerprint, or its repr when the fingerprint
        itself cannot be computed (e.g. the dataset load is what failed)."""
        try:
            return self.job_fingerprint(job)
        except Exception:
            return f"unfingerprintable:{job!r}"

    def _store(self, job, report, art_id: str, results: Dict,
               attempts: int = 1, elapsed: float = 0.0) -> None:
        """Persist one landed result under its id ``art_id``: artifact
        store, memory, then journal — in that order, so a journal ``ok``
        line carrying an artifact id always implies the published entry
        it promises already exists (a failed/torn publish journals
        without an id, and the job simply re-executes in the next
        process)."""
        published = self.artifacts.put(*self._job_key(job), report)
        self.reports.put(job, (report, published))
        results[job] = report
        if self.journal is not None:
            self.journal.record_job(art_id, "ok", attempts=attempts,
                                    elapsed_s=elapsed, artifact=published)

    def _record_failure(self, failure: JobFailure) -> None:
        self.failures.append(failure)
        if self.journal is not None:
            self.journal.record_job(
                self._safe_fingerprint(failure.job), "failed",
                attempts=failure.attempts, elapsed_s=failure.elapsed_s,
                error=f"{failure.error_type}: {failure.error}",
                kind=failure.kind)

    def _on_result(self, pending: Dict, results: Dict):
        def landed(job, report, attempts: int, elapsed: float) -> None:
            self._note_executed([job])
            self._store(job, report, pending[job], results,
                        attempts=attempts, elapsed=elapsed)
        return landed

    def _run_serial(self, pending: Dict, results: Dict,
                    fail_fast: bool = True) -> List[JobFailure]:
        """Execute jobs one by one under the retry/deadline policy,
        persisting each result as it lands (a failure part-way keeps
        everything computed so far cached)."""
        return run_serial(list(pending), _execute_job,
                          self._on_result(pending, results),
                          timeout=self.timeout, retries=self.retries,
                          backoff=self.backoff, fail_fast=fail_fast)

    def _run_parallel(self, pending: Dict, results: Dict,
                      fail_fast: bool = True) -> List[JobFailure]:
        """Fan job chunks out over supervised worker processes.

        Chunk granularity comes from :func:`_chunk_key` — per
        (dataset, seed) for simulation jobs so a worker amortizes
        dataset/workload construction, per job for training jobs; fork
        hands workers the parent's warm caches.  Workers stream one
        message per finished job, so every completed job is persisted
        as it arrives: a killed or hung worker costs only its in-flight
        job (retried under the engine's budget), and an environment
        without subprocess support degrades to supervised in-process
        execution.
        """
        chunks: Dict[object, List] = {}
        for job in pending:
            chunks.setdefault(_chunk_key(job), []).append(job)
        chunk_list = list(chunks.values())
        supervisor = Supervisor(
            workers=min(self.workers, len(chunk_list)), execute=_execute_job,
            timeout=self.timeout, retries=self.retries, backoff=self.backoff)
        try:
            return supervisor.run(chunk_list,
                                  self._on_result(pending, results),
                                  fail_fast=fail_fast)
        finally:
            self.pool_used = self.pool_used or supervisor.used_processes

    def simulate(self, accelerator: str, dataset: str, model: str,
                 target_average_bits: Optional[float] = None,
                 **mega_kwargs) -> SimReport:
        """Single-job convenience wrapper over :meth:`run`."""
        job = SimJob.from_call(accelerator, dataset, model, mega_kwargs,
                               target_average_bits=target_average_bits)
        return self.run([job])[job]

    # -- non-simulation artifacts ------------------------------------------
    def cached_table(self, key_parts: tuple, compute: Callable[[], T]) -> T:
        """Memoize a whole derived table (memory + ``memo`` artifact).

        Callers put every result-determining input — including dataset
        fingerprints — into ``key_parts`` as JSON primitives (or
        lists/tuples of them); the code version in the artifact id makes
        stale tables die with the code that produced them.
        """
        return self._memo(("table",) + key_parts, compute)

    # -- maintenance -------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop in-process caches (stored artifacts survive): this
        engine's reports and tables, the workload memo, and the
        ``repro.perf.cache`` dataset, partition and locality caches."""
        self.reports.clear()
        self.tables.clear()
        _WORKLOAD_MEMO.clear()
        clear_all_caches()
        self.executed_jobs = 0
        self.executed_train_jobs = 0
        self.pool_used = False
        self.failures = []

    def stats(self) -> Dict[str, Dict[str, int]]:
        out = {"reports": self.reports.stats(), "tables": self.tables.stats(),
               "workloads": _WORKLOAD_MEMO.stats(),
               "executed": {"jobs": self.executed_jobs,
                            "train_jobs": self.executed_train_jobs,
                            "pool_used": self.pool_used,
                            "failed_jobs": len(self.failures)}}
        out["artifacts"] = self.artifacts.stats()
        if self.remote is not None:
            out["remote"] = self.remote.stats()
        return out


_ENGINE: Optional[SweepEngine] = None


def get_engine() -> SweepEngine:
    """The process-wide default engine the experiment runners share."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = SweepEngine()
    return _ENGINE


def set_engine(engine: Optional[SweepEngine]) -> Optional[SweepEngine]:
    """Swap the default engine (tests use this to isolate cache state)."""
    global _ENGINE
    previous = _ENGINE
    _ENGINE = engine
    return previous


@contextlib.contextmanager
def temporary_cache_dir(path: os.PathLike):
    """Redirect ``REPRO_CACHE_DIR`` and the default engine to ``path``.

    Used by the test-suite conftests to keep sweeps hermetic: inside the
    context every engine created without an explicit ``cache_dir``
    (including the process default) persists under ``path``; on exit the
    previous environment and default engine are restored.
    """
    previous_dir = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    previous_engine = set_engine(None)  # rebuilt lazily under the new dir
    try:
        yield
    finally:
        if previous_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous_dir
        set_engine(previous_engine)
