"""The supervised execution layer: deadlines, retries, worker watchdog."""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.eval.supervise import (JobFailure, JobTimeout, Supervisor,
                                  backoff_delay, job_deadline, run_serial)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork workers")


def _mark(job, attempt):
    """Leave one marker file per (job, attempt) execution."""
    tag, root = job
    (Path(root) / f"{tag}.{attempt}").write_text("")


def _flaky_execute(job, attempt):
    """Dies/fails on specific tags, first attempt only; else echoes."""
    _mark(job, attempt)
    tag, _ = job
    if tag.startswith("die") and attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    if tag.startswith("slow-die") and attempt == 0:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    if tag.startswith("fail") and attempt == 0:
        raise ValueError(f"flaky failure for {tag}")
    if tag.startswith("always-fail"):
        raise ValueError(f"permanent failure for {tag}")
    return tag


class _UnpicklableError(Exception):
    """Pickles in the worker but cannot unpickle in the parent: args
    holds one string, so the reconstructor calls ``__init__`` with one
    argument and TypeErrors."""

    def __init__(self, a, b):
        super().__init__(f"{a}:{b}")


def _raise_unpicklable(job, attempt):
    raise _UnpicklableError("boom", job[0])


def _slow_ok_then_instant_fail(job, attempt):
    tag, _ = job
    if tag == "slow-ok":
        time.sleep(0.4)
        return tag
    raise ValueError(f"instant failure for {tag}")


def _stubborn_hang(job, attempt):
    """Hangs beyond SIGALRM's reach so only the watchdog can end it."""
    _mark(job, attempt)
    tag, _ = job
    if tag.startswith("hang") and attempt == 0:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(60)
    return tag


def _attempts_seen(root) -> set:
    return {p.name for p in Path(root).iterdir()}


class TestJobDeadline:
    def test_noop_when_disabled(self):
        with job_deadline(0.0):
            time.sleep(0.01)

    def test_raises_job_timeout(self):
        with pytest.raises(JobTimeout):
            with job_deadline(0.1):
                time.sleep(5)

    def test_fast_body_unaffected(self):
        with job_deadline(5.0):
            pass
        time.sleep(0.02)  # a stale alarm would fire here


class TestRunSerial:
    def test_success_reports_attempts_and_elapsed(self, tmp_path):
        landed = []
        failures = run_serial(
            [("a", str(tmp_path)), ("b", str(tmp_path))], _flaky_execute,
            lambda job, res, attempts, elapsed: landed.append(
                (job[0], res, attempts)))
        assert failures == []
        assert landed == [("a", "a", 1), ("b", "b", 1)]

    def test_retry_recovers_first_attempt_failure(self, tmp_path):
        landed = []
        failures = run_serial(
            [("fail-1", str(tmp_path))], _flaky_execute,
            lambda job, res, attempts, elapsed: landed.append(
                (res, attempts)),
            retries=1, backoff=0.0)
        assert failures == []
        assert landed == [("fail-1", 2)]
        assert _attempts_seen(tmp_path) == {"fail-1.0", "fail-1.1"}

    def test_fail_fast_raises_original_exception(self, tmp_path):
        with pytest.raises(ValueError, match="permanent failure"):
            run_serial([("always-fail", str(tmp_path))], _flaky_execute,
                       lambda *a: None, retries=1, backoff=0.0)

    def test_degrade_collects_failures_and_continues(self, tmp_path):
        landed = []
        failures = run_serial(
            [("always-fail", str(tmp_path)), ("ok", str(tmp_path))],
            _flaky_execute,
            lambda job, res, attempts, elapsed: landed.append(res),
            retries=1, backoff=0.0, fail_fast=False)
        assert landed == ["ok"]
        assert len(failures) == 1
        failure = failures[0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2
        assert failure.kind == "error"

    def test_timeout_becomes_a_timeout_failure(self, tmp_path):
        def sleepy(job, attempt):
            time.sleep(5)

        failures = run_serial(["only"], sleepy, lambda *a: None,
                              timeout=0.2, fail_fast=False)
        assert len(failures) == 1
        assert failures[0].kind == "timeout"


@needs_fork
class TestSupervisor:
    def test_results_stream_per_job(self, tmp_path):
        sup = Supervisor(workers=2, execute=_flaky_execute)
        landed = {}
        failures = sup.run(
            [[("a", str(tmp_path)), ("b", str(tmp_path))],
             [("c", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.__setitem__(
                job[0], res))
        assert failures == []
        assert landed == {"a": "a", "b": "b", "c": "c"}
        assert sup.used_processes

    def test_worker_death_keeps_completed_jobs(self, tmp_path):
        """The satellite-1 regression: a dead worker loses only its
        in-flight job; jobs it already reported are never re-executed."""
        sup = Supervisor(workers=1, execute=_flaky_execute, retries=1,
                         backoff=0.0)
        landed = {}
        chunk = [("a", str(tmp_path)), ("die", str(tmp_path)),
                 ("c", str(tmp_path))]
        failures = sup.run([chunk], lambda job, res, attempts, elapsed:
                           landed.__setitem__(job[0], (res, attempts)))
        assert failures == []
        assert landed["a"] == ("a", 1)
        assert landed["die"] == ("die", 2)    # burned its first attempt
        assert landed["c"] == ("c", 1)        # requeued, attempt preserved
        seen = _attempts_seen(tmp_path)
        assert "a.0" in seen and "a.1" not in seen  # never double-executed
        assert {"die.0", "die.1"} <= seen
        assert "c.1" not in seen

    def test_worker_death_exhausts_into_failure(self, tmp_path):
        sup = Supervisor(workers=1, execute=_flaky_execute, retries=0)
        landed = {}
        failures = sup.run(
            [[("a", str(tmp_path)), ("die", str(tmp_path)),
              ("c", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.__setitem__(
                job[0], res),
            fail_fast=False)
        assert set(landed) == {"a", "c"}
        assert len(failures) == 1
        assert failures[0].kind == "worker-death"
        assert failures[0].error_type == "WorkerDied"
        assert failures[0].job[0] == "die"

    def test_fail_fast_reraises_but_stores_completed(self, tmp_path):
        sup = Supervisor(workers=1, execute=_flaky_execute)
        landed = {}
        with pytest.raises(ValueError, match="permanent failure"):
            sup.run([[("a", str(tmp_path)), ("always-fail", str(tmp_path)),
                      ("c", str(tmp_path))]],
                    lambda job, res, attempts, elapsed: landed.__setitem__(
                        job[0], res))
        assert "a" in landed

    def test_retry_recovers_exception_in_worker(self, tmp_path):
        sup = Supervisor(workers=2, execute=_flaky_execute, retries=2,
                         backoff=0.0)
        landed = {}
        failures = sup.run(
            [[("fail-a", str(tmp_path))], [("ok", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.__setitem__(
                job[0], attempts))
        assert failures == []
        assert landed == {"fail-a": 2, "ok": 1}

    def test_watchdog_kills_stubborn_hang(self, tmp_path):
        """A worker wedged beyond SIGALRM's reach is killed by the
        parent's watchdog and the job retried in a fresh worker."""
        sup = Supervisor(workers=1, execute=_stubborn_hang, timeout=0.3,
                         retries=1, backoff=0.0)
        landed = {}
        started = time.monotonic()
        failures = sup.run(
            [[("hang", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.__setitem__(
                job[0], attempts))
        assert failures == []
        assert landed == {"hang": 2}
        assert time.monotonic() - started < 30  # watchdog, not the sleep

    def test_watchdog_exhaustion_is_a_timeout_failure(self, tmp_path):
        def always_hang(job, attempt):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            time.sleep(60)

        sup = Supervisor(workers=1, execute=always_hang, timeout=0.3)
        failures = sup.run([["only"]], lambda *a: None, fail_fast=False)
        assert len(failures) == 1
        assert failures[0].kind == "timeout"
        assert failures[0].error_type == "JobTimeout"

    def test_fail_fast_abort_drops_requeued_tasks(self, tmp_path):
        """The fail-fast hang regression: a worker dying after the abort
        requeues its rest-of-chunk into ``pending``; unless those tasks
        are dropped the supervision loop spins forever with no workers
        left to run them."""
        import threading

        sup = Supervisor(workers=2, execute=_flaky_execute, retries=0)
        outcome = {}

        def run():
            try:
                sup.run([[("always-fail", str(tmp_path))],
                         [("slow-die", str(tmp_path)), ("c", str(tmp_path))]],
                        lambda *a: None)
            except Exception as exc:
                outcome["exc"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "fail-fast supervision hung"
        assert isinstance(outcome.get("exc"), ValueError)

    def test_undecodable_worker_exception_becomes_failure(self, tmp_path):
        """An exception that pickles in the worker but fails to unpickle
        in the parent degrades into a JobFailure (and still burns retry
        attempts) instead of aborting the whole sweep."""
        sup = Supervisor(workers=1, execute=_raise_unpicklable, retries=1,
                         backoff=0.0)
        failures = sup.run([[("bad", str(tmp_path))]], lambda *a: None,
                           fail_fast=False)
        assert len(failures) == 1
        assert failures[0].kind == "error"
        assert failures[0].attempts == 2
        assert "could not be decoded" in failures[0].error

    def test_failure_elapsed_is_per_job_not_per_chunk(self, tmp_path):
        sup = Supervisor(workers=1, execute=_slow_ok_then_instant_fail)
        failures = sup.run(
            [[("slow-ok", str(tmp_path)), ("quick-fail", str(tmp_path))]],
            lambda *a: None, fail_fast=False)
        assert len(failures) == 1
        assert failures[0].job[0] == "quick-fail"
        # Before the per-job clock this reported the cumulative chunk
        # time (>= the 0.4s the first job slept).
        assert failures[0].elapsed_s < 0.3

    def test_inline_tail_when_fork_stops_working(self, tmp_path,
                                                 monkeypatch):
        """The first worker starts, every later ``Process.start()``
        fails: the tail finishes in-process, each job lands once, and a
        job that failed in the worker resumes at its next attempt."""
        parent = os.getpid()
        inline_calls = []

        def execute(job, attempt):
            if os.getpid() == parent:
                inline_calls.append((job[0], attempt))
            return _flaky_execute(job, attempt)

        sup = Supervisor(workers=1, execute=execute, retries=1, backoff=0.0)

        def refuse():
            raise OSError("no more processes")

        real_process = sup._ctx.Process
        processes = []

        def process(*args, **kwargs):
            proc = real_process(*args, **kwargs)
            if processes:
                proc.start = refuse
            processes.append(proc)
            return proc

        monkeypatch.setattr(sup._ctx, "Process", process)
        landed = []
        failures = sup.run(
            [[("fail-a", str(tmp_path)), ("b", str(tmp_path))],
             [("c", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.append(
                (job[0], attempts)))
        assert failures == []
        assert sorted(landed) == [("b", 1), ("c", 1), ("fail-a", 2)]
        assert sorted(inline_calls) == [("c", 0), ("fail-a", 1)]
        assert sup.used_processes
        assert sup._ctx is None

    def test_serial_fallback_without_fork(self, tmp_path):
        sup = Supervisor(workers=2, execute=_flaky_execute)
        sup._ctx = None  # simulate a platform without fork
        landed = {}
        failures = sup.run(
            [[("a", str(tmp_path))], [("b", str(tmp_path))]],
            lambda job, res, attempts, elapsed: landed.__setitem__(
                job[0], res))
        assert failures == []
        assert landed == {"a": "a", "b": "b"}
        assert not sup.used_processes


class TestBackoffJitter:
    """Jittered exponential backoff, deterministic under the chaos seed."""

    def test_zero_backoff_is_zero(self):
        assert backoff_delay(0.0, 3, "token") == 0.0

    def test_jitter_stays_within_half_to_full_base(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
        for attempt in range(4):
            base = 0.2 * 2.0 ** attempt
            delay = backoff_delay(0.2, attempt, "token")
            assert 0.5 * base <= delay <= base

    def test_deterministic_under_faults_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        first = backoff_delay(0.5, 2, "job-a")
        assert first == backoff_delay(0.5, 2, "job-a")
        assert first != backoff_delay(0.5, 2, "job-b")   # token-keyed
        assert first != backoff_delay(0.5, 3, "job-a")   # attempt-keyed
        monkeypatch.setenv("REPRO_FAULTS_SEED", "8")
        assert first != backoff_delay(0.5, 2, "job-a")   # seed-keyed
