"""Supervised job execution: deadlines, watchdog, bounded retries.

The sweep engine's execution layer used to hand chunks to a
``ProcessPoolExecutor`` and hope: a hung simulation stalled the sweep
forever, a SIGKILLed worker broke the whole pool (discarding results
that had already been computed but not yet consumed), and any exception
burned the batch.  This module replaces that with explicit supervision:

- :func:`run_serial` executes jobs in-process with per-job deadlines
  (SIGALRM-based, where available) and bounded exponential-backoff
  retries;
- :class:`Supervisor` fans job chunks out over worker *processes it
  owns* (forked, so they inherit warm caches exactly like the old
  pool).  Workers stream one message per finished job back over a
  pipe, so a worker that dies mid-chunk loses only its in-flight job —
  everything already reported is kept, never re-executed.  The parent
  enforces a watchdog deadline per in-flight job (kill + retry), detects
  killed workers via their process sentinels, and reschedules failed
  jobs with jittered exponential backoff (see :func:`backoff_delay`)
  until ``retries`` is exhausted.

Both paths report exhausted jobs as :class:`JobFailure` records (the
engine's graceful-degradation currency) or, in fail-fast mode, finish
storing whatever completed and re-raise the original exception.

Retry, timeout and backoff are arguments, passed in by the engine
(:class:`repro.eval.engine.SweepEngine` holds them).  The fault harness
(:mod:`repro.faults`) asks this module what it enforces on the running
job: :func:`job_timeout` and :func:`in_worker`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "JobFailure",
    "JobTimeout",
    "Supervisor",
    "backoff_delay",
    "job_deadline",
    "run_serial",
]


class JobTimeout(RuntimeError):
    """A job exceeded its per-job deadline."""


@dataclass
class JobFailure:
    """One job that exhausted its retry budget."""

    job: object
    error_type: str
    error: str
    attempts: int
    elapsed_s: float
    kind: str = "error"                  # "error" | "timeout" | "worker-death"
    exception: Optional[BaseException] = None
    traceback: str = ""


@dataclass
class _TextError:
    """Picklable stand-in for an exception that cannot cross a pipe."""

    type_name: str
    message: str
    traceback: str


# Extra slack the parent watchdog grants beyond the per-job SIGALRM
# deadline: the in-worker alarm is the precise enforcer; the watchdog
# only has to catch workers wedged beyond signal reach.
_WATCHDOG_GRACE = 2.0

# How long the parent sleeps when every worker is mid-job and no
# deadline/backoff wakeup is due sooner.
_POLL_INTERVAL = 0.2

# The deadline of the job executing in this process (0 = none), set for
# the job's duration by job_deadline, and whether this process is a
# forked worker (set after fork by _worker_main).
_job_timeout = 0.0
_in_worker = False


def job_timeout() -> float:
    """The deadline in seconds supervision holds the running job to
    (0 when it has none, or outside a job)."""
    return _job_timeout


def in_worker() -> bool:
    """True inside a supervised worker process (safe to kill: the
    parent detects the death and retries the job)."""
    return _in_worker


@contextmanager
def job_deadline(seconds: float):
    """Raise :class:`JobTimeout` if the body runs longer than ``seconds``.

    SIGALRM-based, so it preempts pure-Python work (including an
    injected ``hang`` fault's sleep).  The alarm is not armed when
    ``seconds`` is zero, off the main thread, or on platforms without
    ``SIGALRM`` — the supervisor's watchdog is the backstop there.
    Either way :func:`job_timeout` reads ``seconds`` inside the body.
    """
    global _job_timeout
    armed = (seconds > 0 and hasattr(signal, "SIGALRM")
             and threading.current_thread() is threading.main_thread())
    if armed:
        def on_alarm(signum, frame):
            raise JobTimeout(f"job exceeded the {seconds:g}s deadline")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    previous_timeout, _job_timeout = _job_timeout, seconds
    try:
        yield
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        _job_timeout = previous_timeout


def backoff_delay(backoff: float, attempt: int, token: str = "") -> float:
    """Jittered exponential backoff: ``backoff * 2**attempt`` scaled
    into ``[0.5, 1.0)`` of itself.

    The jitter decorrelates simultaneous retries — when a fault burst
    fails many workers (or many :mod:`repro.client` requests) at once,
    plain exponential backoff would march them all back onto the disk
    cache / server in lockstep at every attempt.  The jitter fraction is
    drawn from ``sha1(REPRO_FAULTS_SEED | token | attempt)`` when a
    fault seed is set — so chaos tests are bit-reproducible — and from
    process-local randomness otherwise.  A ``backoff`` of 0 stays 0.
    """
    base = backoff * (2.0 ** attempt)
    if base <= 0.0:
        return 0.0
    seed = os.environ.get("REPRO_FAULTS_SEED")
    if seed is None:
        fraction = random.random()
    else:
        digest = hashlib.sha1(
            f"{seed}|backoff|{token}|{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (0.5 + 0.5 * fraction)


def _run_prepare(prepare: Optional[Callable[[Sequence], None]],
                 jobs: Sequence) -> None:
    """Invoke an optional batch-preparation hook over ``jobs``.

    ``prepare`` is an optimization hook (the sweep engine uses it to
    pre-evaluate simulation batches); failing to prepare must never
    fail the jobs themselves — they simply execute the scalar way — so
    any exception it raises is swallowed here.
    """
    if prepare is None or not jobs:
        return
    try:
        prepare(jobs)
    except Exception:
        pass


def _failure_from_exception(job, exc: BaseException, attempts: int,
                            elapsed: float) -> JobFailure:
    kind = "timeout" if isinstance(exc, JobTimeout) else "error"
    return JobFailure(job=job, error_type=type(exc).__name__, error=str(exc),
                      attempts=attempts, elapsed_s=elapsed, kind=kind,
                      exception=exc,
                      traceback="".join(traceback.format_exception(
                          type(exc), exc, exc.__traceback__)))


def run_serial(jobs: Sequence, execute: Callable[[object, int], object],
               on_result: Callable[[object, object, int, float], None],
               timeout: float = 0.0, retries: int = 0, backoff: float = 0.05,
               fail_fast: bool = True,
               prepare: Optional[Callable[[Sequence], None]] = None,
               ) -> List[JobFailure]:
    """Execute ``jobs`` in-process under the retry/deadline policy.

    ``on_result(job, result, attempts, elapsed_s)`` fires per success as
    it lands, so an abort part-way keeps everything already computed.
    In fail-fast mode the first exhausted job re-raises immediately
    (today's engine semantics); otherwise it becomes a
    :class:`JobFailure` and the batch continues.

    ``prepare``, when given, is called once with the whole job list
    before execution starts (outside the per-job deadline) — the
    engine's batched-simulation hook; its failures are suppressed and
    the jobs just execute individually.
    """
    _run_prepare(prepare, jobs)
    failures: List[JobFailure] = []
    for job in jobs:
        started = time.perf_counter()
        for attempt in range(retries + 1):
            try:
                with job_deadline(timeout):
                    result = execute(job, attempt)
            except Exception as exc:
                if attempt < retries:
                    time.sleep(backoff_delay(backoff, attempt, repr(job)))
                    continue
                if fail_fast:
                    raise
                failures.append(_failure_from_exception(
                    job, exc, attempt + 1, time.perf_counter() - started))
                break
            else:
                on_result(job, result, attempt + 1,
                          time.perf_counter() - started)
                break
    return failures


# ----------------------------------------------------------------------
# Parallel supervision
# ----------------------------------------------------------------------

def _worker_main(conn, jobs: Sequence, attempts: Sequence[int],
                 timeout: float, execute, prepare=None) -> None:
    """Worker entry: run the chunk, streaming one message per job.

    Messages: ``("ok", idx, result)``, ``("err", idx, exc_or_text)``,
    and a final ``("bye",)``.  Exceptions that cannot pickle cross the
    pipe as :class:`_TextError`.

    ``prepare`` runs once over the chunk before the job loop (the
    batched-simulation hook); the stash it fills lives in this worker's
    memory, so a worker killed mid-chunk loses only its own batch — the
    requeued tail re-prepares in a fresh worker.
    """
    global _in_worker
    _in_worker = True
    _run_prepare(prepare, jobs)
    for idx, (job, attempt) in enumerate(zip(jobs, attempts)):
        try:
            with job_deadline(timeout):
                result = execute(job, attempt)
        except Exception as exc:
            try:
                conn.send(("err", idx, exc))
            except Exception:
                conn.send(("err", idx, _TextError(
                    type(exc).__name__, str(exc),
                    "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__)))))
            continue
        try:
            conn.send(("ok", idx, result))
        except Exception as exc:
            conn.send(("err", idx, _TextError(
                type(exc).__name__,
                f"result for {job!r} could not cross the pipe: {exc}", "")))
    conn.send(("bye",))
    conn.close()


@dataclass
class _Task:
    """One dispatchable unit: a chunk of jobs with per-job attempts."""

    jobs: List
    attempts: List[int]
    not_before: float = 0.0


@dataclass
class _Running:
    process: multiprocessing.process.BaseProcess
    conn: object
    task: _Task
    reported: int = 0                      # jobs acknowledged (ok or err)
    deadline: Optional[float] = None       # watchdog cutoff for current job
    # Start of the current in-flight job: reset as each job's message
    # is drained, so elapsed figures are per-job, not per-chunk.
    started: float = field(default_factory=time.perf_counter)
    done: bool = False                     # saw "bye"


class Supervisor:
    """Process-owning chunk scheduler with watchdog + retry semantics."""

    def __init__(self, workers: int, execute: Callable[[object, int], object],
                 timeout: float = 0.0, retries: int = 0,
                 backoff: float = 0.05,
                 prepare: Optional[Callable[[Sequence], None]] = None) -> None:
        self.workers = max(int(workers), 1)
        self.execute = execute
        self.prepare = prepare
        self.timeout = max(float(timeout), 0.0)
        self.retries = max(int(retries), 0)
        self.backoff = max(float(backoff), 0.0)
        # True once a worker process delivered at least one job result.
        self.used_processes = False
        self._ctx = None
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")

    # -- public ------------------------------------------------------------
    def run(self, chunks: Sequence[Sequence],
            on_result: Callable[[object, object, int, float], None],
            fail_fast: bool = True) -> List[JobFailure]:
        """Run every chunk; returns the exhausted-job failures.

        ``on_result`` fires in the supervising thread as each job's
        result arrives.  In fail-fast mode, the first exhausted job
        stops dispatching, drains the in-flight workers (their results
        are stored) and re-raises the original exception.
        """
        if self._ctx is None:
            # No fork support: supervise in-process instead.
            return run_serial([j for c in chunks for j in c], self.execute,
                              on_result, timeout=self.timeout,
                              retries=self.retries, backoff=self.backoff,
                              fail_fast=fail_fast, prepare=self.prepare)
        pending: deque = deque(
            _Task(jobs=list(chunk), attempts=[0] * len(chunk))
            for chunk in chunks if chunk)
        running: Dict[int, _Running] = {}
        failures: List[JobFailure] = []
        abort: Optional[JobFailure] = None

        try:
            while pending or running:
                now = time.monotonic()
                if self._ctx is None and not running:
                    # Subprocesses stopped being available mid-run:
                    # finish everything left in-process.
                    failures.extend(self._run_inline(pending, on_result,
                                                     fail_fast))
                    break
                if abort is None and self._ctx is not None:
                    self._dispatch(pending, running, now)
                if not running:
                    if not pending:
                        break
                    if self._ctx is not None:
                        wake = min(task.not_before for task in pending)
                        time.sleep(max(wake - now, 0.0) or 0.001)
                    continue
                self._pump(pending, running, failures, on_result)
                if fail_fast and failures and abort is None:
                    abort = failures[0]
                if abort is not None:
                    # _drain/_reap requeue retries and rest-of-chunk
                    # tasks even while aborting; drop them every
                    # iteration or `while pending` spins forever once
                    # the workers are gone.
                    pending.clear()
        finally:
            for run in running.values():
                if run.process.is_alive():
                    run.process.kill()
                run.process.join()
                _close_quietly(run.conn)
        if abort is not None:
            if abort.exception is not None:
                raise abort.exception
            raise RuntimeError(
                f"{abort.error_type}: {abort.error}\n{abort.traceback}")
        return failures

    # -- scheduling --------------------------------------------------------
    def _dispatch(self, pending: deque, running: Dict[int, _Running],
                  now: float) -> None:
        """Start worker processes for due tasks while slots are free."""
        waited = []
        while pending and len(running) < self.workers:
            task = pending.popleft()
            if task.not_before > now:
                waited.append(task)
                continue
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, task.jobs, task.attempts, self.timeout,
                      self.execute, self.prepare),
                daemon=True)
            try:
                proc.start()
            except (OSError, ValueError, NotImplementedError):
                # Cannot stand up subprocesses here: put the task back
                # and let run() finish everything left in-process.
                _close_quietly(parent_conn)
                _close_quietly(child_conn)
                self._ctx = None
                waited.append(task)
                break
            child_conn.close()
            running[id(proc)] = _Running(
                process=proc, conn=parent_conn, task=task,
                deadline=self._new_deadline())
        pending.extendleft(reversed(waited))

    def _run_inline(self, pending: deque, on_result,
                    fail_fast: bool) -> List[JobFailure]:
        """Finish the not-yet-dispatched tail in-process (no fork)."""
        jobs: List = []
        attempts: List[int] = []
        for task in pending:
            jobs.extend(task.jobs)
            attempts.extend(task.attempts)
        pending.clear()
        _run_prepare(self.prepare, jobs)
        failures: List[JobFailure] = []
        for job, first_attempt in zip(jobs, attempts):
            started = time.perf_counter()
            for attempt in range(first_attempt, self.retries + 1):
                try:
                    with job_deadline(self.timeout):
                        result = self.execute(job, attempt)
                except Exception as exc:
                    if attempt < self.retries:
                        time.sleep(backoff_delay(self.backoff, attempt,
                                                 repr(job)))
                        continue
                    if fail_fast:
                        raise
                    failures.append(_failure_from_exception(
                        job, exc, attempt + 1, time.perf_counter() - started))
                    break
                else:
                    on_result(job, result, attempt + 1,
                              time.perf_counter() - started)
                    break
        return failures

    def _new_deadline(self) -> Optional[float]:
        if self.timeout <= 0:
            return None
        return time.monotonic() + self.timeout + _WATCHDOG_GRACE

    def _wait_timeout(self, pending: deque, running: Dict[int, _Running]
                      ) -> float:
        now = time.monotonic()
        cutoffs = [run.deadline for run in running.values()
                   if run.deadline is not None]
        cutoffs.extend(task.not_before for task in pending
                       if task.not_before > now)
        if not cutoffs:
            return _POLL_INTERVAL
        return min(max(min(cutoffs) - now, 0.0), _POLL_INTERVAL)

    def _pump(self, pending: deque, running: Dict[int, _Running],
              failures: List[JobFailure], on_result) -> None:
        """Wait for worker messages/exits; apply watchdog deadlines."""
        handles = []
        by_handle = {}
        for key, run in running.items():
            handles.append(run.conn)
            by_handle[run.conn] = key
            handles.append(run.process.sentinel)
            by_handle[run.process.sentinel] = key
        ready = multiprocessing.connection.wait(
            handles, timeout=self._wait_timeout(pending, running))
        touched = {by_handle[handle] for handle in ready}
        for key in list(touched):
            run = running.get(key)
            if run is None:
                continue
            self._drain(run, pending, failures, on_result)
            if run.done or not run.process.is_alive():
                self._reap(key, run, pending, failures)
                running.pop(key, None)
        # Watchdog: kill workers whose current job blew the deadline.
        now = time.monotonic()
        for key, run in list(running.items()):
            if run.deadline is not None and now > run.deadline:
                run.process.kill()
                run.process.join()
                self._drain(run, pending, failures, on_result)
                if not run.done:
                    self._requeue_unreported(run, pending, failures,
                                             kind="timeout")
                _close_quietly(run.conn)
                running.pop(key, None)

    def _drain(self, run: _Running, pending: deque,
               failures: List[JobFailure], on_result) -> None:
        """Consume every message currently buffered on a worker's pipe."""
        while True:
            try:
                if not run.conn.poll():
                    return
                message = run.conn.recv()
            except (EOFError, OSError):
                return
            except Exception as exc:
                # The worker pickled something the parent cannot
                # unpickle (e.g. an Exception subclass whose __init__
                # needs extra args).  recv() consumed the bytes, and
                # messages arrive in job order, so the undecodable one
                # belongs to the first unreported job.
                idx = run.reported
                if idx >= len(run.task.jobs):
                    run.done = True
                    return
                message = ("err", idx, _TextError(
                    type(exc).__name__,
                    f"worker message could not be decoded: {exc}",
                    traceback.format_exc()))
            tag = message[0]
            if tag == "bye":
                run.done = True
                return
            _, idx, payload = message
            job = run.task.jobs[idx]
            attempt = run.task.attempts[idx]
            run.reported = idx + 1
            run.deadline = self._new_deadline()
            now = time.perf_counter()
            elapsed = now - run.started
            run.started = now          # per-job clock, not chunk clock
            if tag == "ok":
                self.used_processes = True
                on_result(job, payload, attempt + 1, elapsed)
                continue
            exc: Optional[BaseException]
            if isinstance(payload, BaseException):
                exc, type_name, text, tb = (payload, type(payload).__name__,
                                            str(payload), "")
            else:
                exc = None
                type_name, text, tb = (payload.type_name, payload.message,
                                       payload.traceback)
            if attempt < self.retries:
                pending.append(_Task(
                    jobs=[job], attempts=[attempt + 1],
                    not_before=time.monotonic()
                    + backoff_delay(self.backoff, attempt, repr(job))))
            else:
                failures.append(JobFailure(
                    job=job, error_type=type_name, error=text,
                    attempts=attempt + 1, elapsed_s=elapsed,
                    kind=("timeout" if type_name == "JobTimeout" else "error"),
                    exception=exc, traceback=tb))

    def _reap(self, key: int, run: _Running, pending: deque,
              failures: List[JobFailure]) -> None:
        """A worker exited: requeue whatever it never reported."""
        run.process.join()
        if not run.done and run.reported < len(run.task.jobs):
            self._requeue_unreported(run, pending, failures,
                                     kind="worker-death")
        _close_quietly(run.conn)

    def _requeue_unreported(self, run: _Running, pending: deque,
                            failures: List[JobFailure], kind: str) -> None:
        """Handle a dead/killed worker's unfinished jobs.

        Jobs are executed in order, so the first unreported job is the
        one that was in flight when the worker died — it burned an
        attempt; the rest never started and keep theirs.
        """
        task = run.task
        idx = run.reported
        if idx >= len(task.jobs):
            return
        victim, victim_attempt = task.jobs[idx], task.attempts[idx]
        elapsed = time.perf_counter() - run.started
        if victim_attempt < self.retries:
            pending.append(_Task(
                jobs=[victim], attempts=[victim_attempt + 1],
                not_before=time.monotonic()
                + backoff_delay(self.backoff, victim_attempt, repr(victim))))
        else:
            label = ("worker process died mid-job" if kind == "worker-death"
                     else f"watchdog killed the worker after the "
                          f"{self.timeout:g}s job deadline")
            failures.append(JobFailure(
                job=victim, error_type=("WorkerDied" if kind == "worker-death"
                                        else "JobTimeout"),
                error=label, attempts=victim_attempt + 1, elapsed_s=elapsed,
                kind=kind))
        rest_jobs = task.jobs[idx + 1:]
        if rest_jobs:
            pending.append(_Task(jobs=rest_jobs,
                                 attempts=task.attempts[idx + 1:]))


def _close_quietly(conn) -> None:
    try:
        conn.close()
    except (OSError, ValueError):
        pass
