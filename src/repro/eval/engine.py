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
   figure scripts sharing a sweep stay cheap and identity-stable);
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
   fingerprints, workloads, tables) are ``memo`` artifacts in the same
   store;
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
disabled), ``backoff`` (base of the exponential retry backoff, default
0.05 s; attempt ``n`` waits ``backoff * 2**n``) and ``batch`` (batched
simulation of same-dataset job groups; ``False`` forces the scalar
per-job path).  The environment names only where things live:
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
from ..artifacts import ArtifactStore, derive_artifact_id
from ..perf.cache import ContentCache, cached_load_dataset, graph_fingerprint
from ..registry import get_accelerator
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
                      "repro.sim.locality", "repro.sim.batched",
                      "repro.quant.flows")


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
        return cls(accelerator, dataset, model, variant,
                   target_average_bits, seed)

    @property
    def precision(self) -> str:
        """The workload precision the paper pairs with this accelerator
        (registry metadata, not a name pattern)."""
        return get_accelerator(self.accelerator).precision

    @property
    def variant_label(self) -> str:
        return "+".join(f"{k}={v}" for k, v in self.variant)


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


# Worker/serial-side memo of built workloads, shared by every job of one
# (dataset, model, precision) in a process.  Module-level (not on the
# engine) so forked pool workers reuse whatever the parent already built.
_WORKLOAD_MEMO = ContentCache("workloads")


def _workload_key(dataset: str, model: str, precision: str,
                  target_average_bits: Optional[float], seed: int) -> tuple:
    return (dataset.lower(), model.lower(), precision,
            target_average_bits, seed)


def _build_workload_cached(dataset: str, model: str, precision: str,
                           target_average_bits: Optional[float],
                           seed: int) -> Workload:
    from ..sim.workload import build_workload

    key = _workload_key(dataset, model, precision, target_average_bits, seed)
    return _WORKLOAD_MEMO.get_or_compute(
        key,
        lambda: build_workload(
            dataset, model, precision, seed=seed,
            graph=cached_load_dataset(dataset, scale="sim", seed=seed),
            target_average_bits=target_average_bits,
        ))


def _build_job_workload(job: SimJob) -> Workload:
    return _build_workload_cached(job.dataset, job.model, job.precision,
                                  job.target_average_bits, job.seed)


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


# ----------------------------------------------------------------------
# Batched simulation (ROADMAP item 5).
#
# The supervision layer's ``prepare`` hook hands the execute process its
# whole job list (serial) or chunk (worker) before the per-job loop
# starts.  ``prepare_sim_batch`` groups the simulation jobs that share a
# workload recipe, evaluates each group through the stacked evaluator
# (:func:`repro.sim.batched.simulate_batch` — bit-identical to the
# scalar path by construction and by test), and stashes the finished
# reports here.  ``_execute_job`` then pops its job's report *after*
# the fault injector has had its say, so per-job fault/retry/journal
# semantics are untouched: a kill loses the process-local stash and the
# retry simply runs scalar; an injected error leaves the stash intact
# for the retry; cache and artifact publication stay per-job in
# ``SweepEngine._store`` exactly as before.
# ----------------------------------------------------------------------

_BATCH_STASH: Dict[object, object] = {}
_BATCH_MISSING = object()

# Cap on how many jobs one batched evaluation stacks together.
_SIM_BATCH_MAX = 256


def _batch_group_key(job: "SimJob") -> Optional[tuple]:
    """Workload-recipe key: jobs agreeing on it can share one batch."""
    try:
        precision = job.precision
    except Exception:
        return None          # unknown accelerator: let execution raise
    return (job.dataset.lower(), job.model.lower(), precision, job.seed)


def plan_sim_batches(jobs: Sequence) -> List[List["SimJob"]]:
    """Partition ``jobs`` into batch-evaluable groups.

    Simulation jobs that share (dataset, model, precision, seed) — i.e.
    one workload recipe, differing only in accelerator/variant/target —
    form a group, split at ``_SIM_BATCH_MAX``.  Singleton groups
    are dropped: batching one job is pure overhead, and huge scenarios
    (which chunk per job, see :func:`_chunk_key`) land here, falling
    through to the scalar path by design.
    """
    groups: Dict[tuple, List[SimJob]] = {}
    for job in jobs:
        if not isinstance(job, SimJob):
            continue
        key = _batch_group_key(job)
        if key is not None:
            groups.setdefault(key, []).append(job)
    batches: List[List[SimJob]] = []
    for members in groups.values():
        for start in range(0, len(members), _SIM_BATCH_MAX):
            batch = members[start:start + _SIM_BATCH_MAX]
            if len(batch) >= 2:
                batches.append(batch)
    return batches


def _group_workloads(members: List["SimJob"]) -> Dict[Optional[float], Workload]:
    """Build (or reuse) the workloads of one batch group, per target.

    Missing targets are built in one :func:`build_workload_batch` call —
    sharing the graph load, sampling, degree ranking and feature-stats
    arrays — and published into ``_WORKLOAD_MEMO`` so scalar fallbacks
    and later sweeps see the exact same objects.
    """
    first = members[0]
    precision = first.precision
    targets = list(dict.fromkeys(job.target_average_bits for job in members))
    keys = {target: _workload_key(first.dataset, first.model, precision,
                                  target, first.seed)
            for target in targets}
    built: Dict[Optional[float], Workload] = {}
    missing: List[Optional[float]] = []
    for target in targets:
        cached = _WORKLOAD_MEMO.get(keys[target])
        if cached is not None:
            built[target] = cached
        else:
            missing.append(target)
    if missing:
        from ..sim.workload import build_workload_batch

        graph = cached_load_dataset(first.dataset, scale="sim",
                                    seed=first.seed)
        fresh = build_workload_batch(first.dataset, first.model,
                                     precision=precision, seed=first.seed,
                                     graph=graph, targets=tuple(missing))
        for target, workload in zip(missing, fresh):
            built[target] = _WORKLOAD_MEMO.put(keys[target], workload)
    return built


def _prepare_batch(members: List["SimJob"]) -> bool:
    """Batch-evaluate one group into the stash; False = scalar fallback."""
    from ..sim.batched import simulate_batch

    try:
        workloads_by_target = _group_workloads(members)
        models = [get_accelerator(job.accelerator).build(**dict(job.variant))
                  for job in members]
        workloads = [workloads_by_target[job.target_average_bits]
                     for job in members]
        reports = simulate_batch(models, workloads)
    except Exception:
        return False         # jobs execute (and report errors) scalar-ly
    for job, report in zip(members, reports):
        _BATCH_STASH[job] = report
    return True


def prepare_sim_batch(jobs: Sequence) -> List[int]:
    """The engine's ``prepare`` hook body: stash batched reports.

    Returns the realized batch sizes (empty when nothing grouped).  The
    stash is cleared first so entries from an aborted earlier run cannot
    leak across sweeps.
    """
    _BATCH_STASH.clear()
    sizes: List[int] = []
    for batch in plan_sim_batches(jobs):
        if _prepare_batch(batch):
            sizes.append(len(batch))
    return sizes


def _execute_job(job, attempt: int = 0):
    """Execute one job of either kind (dispatch on the job type).

    Simulation jobs resolve their accelerator through the registry, so
    a registered scenario never needs an engine edit; variant kwargs
    are rejected by entries that declare a fixed configuration.

    ``attempt`` is the retry ordinal the supervision layer passes in;
    the fault-injection harness (:mod:`repro.faults`) keys on it so
    injected failures fire only on a job's first attempt.

    A report stashed by :func:`prepare_sim_batch` is consumed *after*
    the injector fires, so injected kills/errors hit batched jobs with
    the same per-job semantics as scalar ones.
    """
    injector = faults.active_injector()
    if injector is not None:
        injector.on_job(repr(job), attempt)
    if isinstance(job, TrainJob):
        return _execute_train_job(job)
    stashed = _BATCH_STASH.pop(job, _BATCH_MISSING)
    if stashed is not _BATCH_MISSING:
        return stashed
    workload = _build_job_workload(job)
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
    construction there, and the shared disk caches (dataset, workload,
    partition) already keep the workers from repeating it.  Training
    jobs are each their own chunk — a single training run is the
    expensive unit and the (case × flow × seed) grid is the axis worth
    parallelizing.
    """
    if isinstance(job, TrainJob):
        return job
    from ..registry import get_dataset

    if get_dataset(job.dataset).size_hint >= _CHUNK_SPLIT_NODES:
        return job
    return (job.dataset, job.seed)


class SweepEngine:
    """Deduplicating, caching, supervised (optionally parallel) runner."""

    def __init__(self, workers: int = 0,
                 cache_dir: Optional[os.PathLike] = None,
                 retries: int = 0, timeout: float = 0.0,
                 backoff: float = 0.05, journal=None,
                 batch: bool = True, remote=None) -> None:
        self.workers = max(int(workers), 0)
        self.reports = ContentCache("job_results")
        self.tables = ContentCache("tables")
        # Everything persistent is a content-addressed artifact (id
        # derived from its inputs + the code version): job results
        # (kind "sim-report"/"train-result") and the cheap derived memos
        # — graph fingerprints, workloads, tables (kind "memo") — with
        # manifest-backed integrity, quarantine and export/import.
        self.artifacts = ArtifactStore(directory=cache_dir)
        # Optional remote read-through tier (memory → artifacts → remote
        # → execute): when REPRO_REMOTE_URL names a `repro serve` daemon,
        # fresh machines pull admitted artifacts instead of executing.
        # An explicit `remote=` wins; without either, the HTTP client
        # is never imported.
        if remote is None and os.environ.get("REPRO_REMOTE_URL", "").strip():
            from ..remote import remote_store_from_env
            remote = remote_store_from_env(self.artifacts)
        self.remote = remote
        # Artifact ids this engine resolved or produced (id -> kind),
        # surfaced in experiment metadata for provenance and GC liveness.
        self.consumed_artifacts: Dict[str, str] = {}
        # Supervision policy, read at run time: the CLI sets these for
        # one invocation and restores them afterwards.
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        # Optional RunJournal: completed/failed jobs are appended as
        # they land, making any run resumable by id.
        self.journal = journal
        self.executed_jobs = 0
        # Models actually trained by this engine (TrainJobs that reached
        # the execute layer; cache-resolved jobs never count).
        self.executed_train_jobs = 0
        # True once worker processes actually executed jobs (stays False
        # when the serial path or a fallback ran instead).
        self.pool_used = False
        # Batched-simulation policy (False: the scalar reference path).
        self.batch = bool(batch)
        # Honesty flags mirroring pool_used: did batched evaluation
        # actually stash reports, and at what realized group sizes?  On
        # the serial path these are ground truth (the hook runs in this
        # process); on the worker path the hook runs inside forked
        # workers, so the parent records the sizes it *planned* —
        # workers that fall back to scalar mid-batch cannot be observed
        # from here.
        self.batch_used = False
        self.batch_sizes: List[int] = []
        # Jobs that exhausted their retry budget in degrade mode
        # (accumulates across run() calls; cleared by clear_memory).
        self.failures: List[JobFailure] = []

    def _prepare_hook(self) -> Optional[Callable[[Sequence], None]]:
        """The batched-simulation ``prepare`` hook, or None when off.

        Batch preparation runs outside the per-job deadline machinery
        (SIGALRM / watchdog budgets are sized for one job, not a
        stacked group), so it is disabled whenever a job timeout is in
        force — those sweeps keep today's scalar behavior exactly.
        """
        if not self.batch or self.timeout > 0:
            return None

        def prepare(jobs: Sequence) -> None:
            sizes = prepare_sim_batch(jobs)
            if sizes:
                self.batch_used = True
                self.batch_sizes.extend(sizes)

        return prepare

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

        Memoized in memory and as a ``memo`` artifact keyed by
        (dataset, scale, seed): synthetic generation is deterministic in
        those, so warm runs — and stores that imported a corpus —
        resolve the fingerprint without regenerating the graph at all.
        """
        def compute() -> str:
            graph = cached_load_dataset(dataset, scale=scale, seed=seed)
            return graph_fingerprint(graph.adjacency)

        key = ("graph-fp", dataset.lower(), scale, seed)
        return self._memo(key, compute)

    def _job_key(self, job) -> Tuple[str, Dict]:
        """The ``(kind, inputs)`` a job's result is stored under:
        input-graph content, the registry entries' cache tokens and the
        full job recipe (the code version — covering every
        model/flow/trainer source file — enters the id as its producer;
        the tokens cover runtime-registered accelerators/scenarios the
        source digest cannot see)."""
        from ..registry import get_dataset

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

    @staticmethod
    def _job_kind(job) -> str:
        return "train-result" if isinstance(job, TrainJob) else "sim-report"

    # -- execution ---------------------------------------------------------
    def run(self, jobs: Sequence, workers: Optional[int] = None,
            on_error: str = "raise") -> Dict:
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
        workers = self.workers if workers is None else max(int(workers), 0)
        unique = list(dict.fromkeys(jobs))
        results: Dict = {}
        pending: List = []
        sentinel = object()
        for job in unique:
            report = self.reports.get(job)
            if report is not None:
                results[job] = report
                continue
            art_id = self.job_fingerprint(job)
            cached = self.artifacts.get(art_id, sentinel)
            if cached is sentinel and self.remote is not None:
                cached = self.remote.fetch(art_id, sentinel)
            if cached is not sentinel:
                self.consumed_artifacts[art_id] = self._job_kind(job)
                results[job] = self.reports.put(job, cached)
                continue
            pending.append(job)

        if pending:
            for module in _EXECUTION_MODULES:
                importlib.import_module(module)
            fail_fast = on_error == "raise"
            if workers > 1 and len(pending) > 1:
                failures = self._run_parallel(pending, workers, results,
                                              fail_fast)
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

    def _store(self, job, report, results: Dict, attempts: int = 1,
               elapsed: float = 0.0) -> None:
        """Persist one landed result: memory, artifact store, then
        journal — in that order, so a journal ``ok`` line carrying an
        artifact id always implies the published entry it promises
        already exists (a failed/torn publish journals without an id,
        and the job simply re-executes in the next process)."""
        results[job] = self.reports.put(job, report)
        kind, inputs = self._job_key(job)
        art_id = self.artifacts.put(kind, inputs, report)
        if art_id is not None:
            self.consumed_artifacts[art_id] = kind
        if self.journal is not None:
            self.journal.record_job(derive_artifact_id(kind, inputs), "ok",
                                    attempts=attempts, elapsed_s=elapsed,
                                    artifact=art_id)

    def _record_failure(self, failure: JobFailure) -> None:
        self.failures.append(failure)
        if self.journal is not None:
            self.journal.record_job(
                self._safe_fingerprint(failure.job), "failed",
                attempts=failure.attempts, elapsed_s=failure.elapsed_s,
                error=f"{failure.error_type}: {failure.error}",
                kind=failure.kind)

    def _on_result(self, results: Dict):
        def landed(job, report, attempts: int, elapsed: float) -> None:
            self._note_executed([job])
            self._store(job, report, results, attempts=attempts,
                        elapsed=elapsed)
        return landed

    def _run_serial(self, pending: Sequence, results: Dict,
                    fail_fast: bool = True) -> List[JobFailure]:
        """Execute jobs one by one under the retry/deadline policy,
        persisting each result as it lands (a failure part-way keeps
        everything computed so far cached)."""
        return run_serial(pending, _execute_job, self._on_result(results),
                          timeout=self.timeout, retries=self.retries,
                          backoff=self.backoff, fail_fast=fail_fast,
                          prepare=self._prepare_hook())

    def _run_parallel(self, pending: Sequence, workers: int, results: Dict,
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
        prepare = self._prepare_hook()
        if prepare is not None:
            # Workers prepare their own chunks in their own memory; the
            # parent can only record what it planned (see batch_used).
            for chunk in chunk_list:
                planned = [len(batch) for batch in plan_sim_batches(chunk)]
                if planned:
                    self.batch_used = True
                    self.batch_sizes.extend(planned)
        supervisor = Supervisor(
            workers=min(workers, len(chunk_list)), execute=_execute_job,
            timeout=self.timeout, retries=self.retries, backoff=self.backoff,
            prepare=prepare)
        try:
            return supervisor.run(chunk_list, self._on_result(results),
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
    def workload(self, dataset: str, model: str, precision: str,
                 target_average_bits: Optional[float] = None,
                 seed: int = 0) -> Workload:
        """Memoized (memory + ``memo`` artifact) workload construction."""
        key = _workload_key(dataset, model, precision, target_average_bits, seed)
        workload = _WORKLOAD_MEMO.get(key)
        if workload is not None:
            return workload
        from ..registry import get_dataset

        memo_key = ["workload", self.dataset_fingerprint(dataset, seed),
                    get_dataset(dataset).cache_token, key]
        workload, _art_id = self.artifacts.get_or_build(
            "memo", {"key": memo_key},
            lambda: _build_workload_cached(dataset, model, precision,
                                           target_average_bits, seed))
        return _WORKLOAD_MEMO.put(key, workload)

    def graph(self, dataset: str, seed: int = 0):
        """The simulated-scale graph every runner shares."""
        return cached_load_dataset(dataset, scale="sim", seed=seed)

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
        """Drop in-process caches (stored artifacts survive)."""
        self.reports.clear()
        self.tables.clear()
        _WORKLOAD_MEMO.clear()
        self.executed_jobs = 0
        self.executed_train_jobs = 0
        self.pool_used = False
        self.batch_used = False
        self.batch_sizes = []
        self.failures = []
        self.consumed_artifacts = {}

    def clear_disk(self) -> None:
        self.artifacts.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        out = {"reports": self.reports.stats(), "tables": self.tables.stats(),
               "workloads": _WORKLOAD_MEMO.stats(),
               "executed": {"jobs": self.executed_jobs,
                            "train_jobs": self.executed_train_jobs,
                            "pool_used": self.pool_used,
                            "batch_used": self.batch_used,
                            "batched_jobs": sum(self.batch_sizes),
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
