"""Chaos suite: every registered experiment survives injected faults.

The acceptance bar for the fault-tolerant execution layer: with
deterministic fault injection enabled (worker kills, hangs hitting the
timeout, mid-simulation raises, corrupt artifacts, a read-only
store), every sweep runner completes and produces values bit-identical
to a fault-free run — and an interrupted sweep resumed from its journal
executes only the jobs that never finished.
"""

import json
import multiprocessing

import pytest

from repro.eval import engine as engine_mod
from repro.eval.engine import SimJob, SweepEngine
from repro.eval.journal import RunJournal
from repro.faults import InjectedFault, inject_faults
from repro.nn import TrainConfig
from repro.registry import EXPERIMENTS
from repro.report import run_experiment

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork workers")

_TINY = TrainConfig(epochs=2, patience=100)

# Smallest meaningful parameterization per registered experiment: the
# chaos sweep runs each twice (fault-free + faulted), so keep the grids
# tiny.  test_every_experiment_is_chaos_covered pins this map to the
# registry, so a new spec must join the chaos suite to land.
QUICK_PARAMS = {
    "ablation_fig19": {},
    "accuracy_comparison": dict(cases=(("cora", "gcn"),), config=_TINY),
    "accuracy_grid": dict(cases=(("cora", "gcn"),), flows=("fp32", "dq"),
                          seeds=(0,), config=_TINY),
    "cr_sensitivity": dict(models=("gcn",), targets=(8.0,)),
    "degree_feature_magnitudes": dict(dataset="cora", models=("gcn",)),
    "dq_bitwidth_sweep": dict(dataset="cora", model="gcn", bitwidths=(4,),
                              config=_TINY),
    "dram_table": dict(workloads=(("cora", "gcn"),),
                       accelerators=("hygcn",)),
    "energy_breakdown_fig18": dict(datasets=("cora",)),
    "energy_table": dict(workloads=(("cora", "gcn"),),
                         accelerators=("hygcn",)),
    "full_comparison": dict(workloads=(("cora", "gcn"),),
                            accelerators=("hygcn", "mega")),
    "locality_study": dict(strategies=("naive", "condense")),
    "original_config_comparison": dict(datasets=("cora",)),
    "package_length_study": dict(datasets=("cora",),
                                 settings=((16, 24, 32),)),
    "speedup_table": dict(workloads=(("cora", "gcn"),),
                          accelerators=("hygcn",)),
    "stall_table": dict(datasets=("cora",)),
}


def _fresh_engine(tmp_path, tag, **kwargs) -> SweepEngine:
    return SweepEngine(workers=0, cache_dir=tmp_path / tag, **kwargs)


def _run(engine, name, fail_fast=True):
    return run_experiment(name, engine=engine, fail_fast=fail_fast,
                          **QUICK_PARAMS[name])


def _assert_identical(baseline, chaotic):
    assert chaotic.columns == baseline.columns
    assert chaotic.rows == baseline.rows
    assert "errors" not in chaotic.metadata
    assert chaotic.metadata["jobs"]["failed"] == 0


def test_every_experiment_is_chaos_covered():
    assert set(QUICK_PARAMS) == set(EXPERIMENTS.names())


@pytest.mark.parametrize("name", sorted(QUICK_PARAMS))
def test_bit_identical_under_injected_raises(name, tmp_path):
    """Every spec survives a raise on every job's first attempt, with
    results bit-identical to a fault-free run."""
    baseline = _run(_fresh_engine(tmp_path, "clean"), name)
    chaotic_engine = _fresh_engine(tmp_path, "chaos", retries=1, backoff=0.0)
    with inject_faults(raise_=1.0, seed=0):
        chaotic = _run(chaotic_engine, name)
    _assert_identical(baseline, chaotic)
    # Every job really did burn its first attempt.
    assert chaotic_engine.executed_jobs == baseline.metadata["jobs"]["executed"]


class TestSerialChaos:
    def test_no_retry_budget_degrades_with_partial_rows(self, tmp_path):
        engine = _fresh_engine(tmp_path, "deg", retries=0)
        with inject_faults(raise_=0.5, seed=2):
            artifact = _run(engine, "stall_table", fail_fast=False)
        failed = artifact.metadata["jobs"]["failed"]
        assert failed == len(engine.failures) > 0
        assert len(artifact.metadata["errors"]) == failed
        for error in artifact.metadata["errors"]:
            assert error["error_type"] == "InjectedFault"
            assert error["attempts"] == 1
            assert error["kind"] == "error"
            assert error["fingerprint"]

    def test_fail_fast_reraises_the_injected_fault(self, tmp_path):
        engine = _fresh_engine(tmp_path, "ff", retries=0)
        with inject_faults(raise_=1.0, seed=0):
            with pytest.raises(InjectedFault):
                _run(engine, "stall_table", fail_fast=True)

    def test_hang_is_cut_by_the_job_deadline(self, tmp_path):
        baseline = _run(_fresh_engine(tmp_path, "clean", timeout=0.5),
                        "stall_table")
        engine = _fresh_engine(tmp_path, "hang", retries=1, backoff=0.0,
                               timeout=0.5)
        with inject_faults(hang=1.0, seed=0):
            chaotic = _run(engine, "stall_table")
        _assert_identical(baseline, chaotic)

    def test_corrupt_memos_are_quarantined_and_recomputed(self, tmp_path):
        engine = _fresh_engine(tmp_path, "corrupt")
        with inject_faults(corrupt_artifact=1.0), pytest.warns(
                RuntimeWarning, match="quarantined"):
            first = _run(engine, "stall_table")
            # Every published entry reads back damaged, the graph
            # fingerprint memo as much as the job results: each is
            # quarantined (counted, warned once) and recomputed instead
            # of served.
            engine.clear_memory()
            second = _run(engine, "stall_table")
        assert second.rows == first.rows
        kinds = {json.loads((entry / "manifest.json").read_bytes())["kind"]
                 for entry in engine.artifacts.quarantine_root.iterdir()}
        assert kinds == {"memo", "sim-report"}
        assert (second.metadata["jobs"]["executed"]
                == first.metadata["jobs"]["executed"] > 0)

    def test_readonly_cache_degrades_to_memory_only(self, tmp_path):
        engine = _fresh_engine(tmp_path, "ro")
        baseline = _run(_fresh_engine(tmp_path, "clean"), "stall_table")
        with inject_faults(cache_readonly=1.0), pytest.warns(
                RuntimeWarning, match="rebuild-on-demand"):
            artifact = _run(engine, "stall_table")
        _assert_identical(baseline, artifact)
        stats = artifact.metadata["cache"]
        assert stats["write_failures"] > 0
        assert stats["puts"] == 0  # nothing persisted...
        engine.clear_memory()
        rerun = _run(engine, "stall_table")  # ...but reruns still work
        assert rerun.rows == baseline.rows


class TestArtifactChaos:
    """The artifact store under injected corruption and torn publishes:
    rows stay bit-identical, corruption is quarantined (never served),
    and verify leaves a clean corpus behind."""

    def test_corrupt_artifacts_quarantined_and_rebuilt(self, tmp_path):
        baseline = _run(_fresh_engine(tmp_path, "clean"), "stall_table")
        engine = _fresh_engine(tmp_path, "qa")
        with inject_faults(corrupt_artifact=1.0), pytest.warns(
                RuntimeWarning, match="quarantined"):
            first = _run(engine, "stall_table")
            # Every published job artifact reads back corrupt: the warm
            # path quarantines each one and re-executes instead of
            # serving damaged results.
            engine.clear_memory()
            second = _run(engine, "stall_table")
        _assert_identical(baseline, first)
        _assert_identical(baseline, second)
        assert engine.artifacts.quarantined > 0
        assert (second.metadata["jobs"]["executed"]
                == first.metadata["jobs"]["executed"] > 0)
        # Fault lifted: the next reference rebuilds a clean corpus.
        engine.artifacts.verify()
        engine.clear_memory()
        third = _run(engine, "stall_table")
        assert third.rows == baseline.rows
        clean = engine.artifacts.verify()
        assert clean["quarantined"] == []
        assert clean["ok"] == clean["checked"] > 0

    def test_torn_publishes_never_leave_partial_entries(self, tmp_path):
        baseline = _run(_fresh_engine(tmp_path, "clean"), "stall_table")
        engine = _fresh_engine(tmp_path, "torn")
        with inject_faults(torn_rename=1.0):
            first = _run(engine, "stall_table")
        _assert_identical(baseline, first)
        # Every publish was abandoned pre-rename: nothing half-written
        # is visible, and verify finds zero undetected corruptions.
        report = engine.artifacts.verify()
        assert report["checked"] == report["ok"] == 0
        assert report["quarantined"] == []
        engine.clear_memory()
        second = _run(engine, "stall_table")
        _assert_identical(baseline, second)
        assert len(engine.artifacts.ids()) > 0  # clean republish


@needs_fork
class TestParallelChaos:
    def test_worker_kills_are_survived_bit_identically(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(engine_mod, "_CHUNK_SPLIT_NODES", 1)  # per job
        baseline = _run(_fresh_engine(tmp_path, "clean"), "speedup_table")
        engine = SweepEngine(workers=2, cache_dir=tmp_path / "kill",
                             retries=2, backoff=0.0)
        with inject_faults(kill=0.5, seed=0) as injector:
            chaotic = _run(engine, "speedup_table")
            # The plan really targets jobs in this batch (the parent
            # cannot see worker-side firing counters).
            assert any(
                injector.plan.decide("kill", repr(job))
                for job in (SimJob.from_call(acc, ds, model)
                            for acc in ("hygcn", "mega")
                            for ds, model in QUICK_PARAMS[
                                "speedup_table"]["workloads"]))
        _assert_identical(baseline, chaotic)
        assert engine.pool_used

    def test_mid_chunk_casualty_loses_only_its_own_jobs(self, tmp_path):
        """A worker killed mid-chunk costs only the jobs it had not yet
        reported: everything already streamed back stays persisted, the
        requeued tail runs in a fresh worker, and the final results are
        bit-identical to a fault-free serial run."""
        jobs = [SimJob.from_call(name, "cora", "gcn",
                                 target_average_bits=target)
                for name in ("mega", "mega-no-condense", "mega-bitmap")
                for target in (None, 3.0, 4.0, 5.0, 6.0)]
        baseline = _fresh_engine(tmp_path, "clean").run(jobs)

        engine = SweepEngine(workers=2, cache_dir=tmp_path / "chunk-kill",
                             retries=3, backoff=0.0)
        with inject_faults(kill=0.2, corrupt_artifact=(1.0, 1),
                           seed=3) as injector:
            chaotic = engine.run(jobs)
            killed = [job for job in jobs
                      if injector.plan.decide("kill", repr(job))]
            assert killed, "the plan must target at least one chunk member"
        assert all(chaotic[job] == baseline[job] for job in jobs)
        # Only the casualties burned attempts: every job landed exactly
        # once (survivors from the chunk were never re-executed).
        assert engine.executed_jobs == len(jobs)
        assert not engine.failures

    def test_mixed_chaos_parallel_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "_CHUNK_SPLIT_NODES", 1)
        baseline = _run(_fresh_engine(tmp_path, "clean", timeout=5.0),
                        "stall_table")
        engine = SweepEngine(workers=2, cache_dir=tmp_path / "mix",
                             retries=3, backoff=0.0, timeout=5.0)
        with inject_faults(kill=0.3, raise_=0.3, corrupt_artifact=(1.0, 1),
                           seed=1):
            chaotic = _run(engine, "stall_table")
        _assert_identical(baseline, chaotic)


class TestResume:
    def test_resume_executes_only_remaining_jobs(self, tmp_path):
        cache = tmp_path / "shared"
        jobs = [SimJob.from_call(acc, "cora", "gcn")
                for acc in ("hygcn", "gcnax", "mega")]

        # "Interrupted" run: only part of the batch ever completed.
        first = SweepEngine(workers=0, cache_dir=cache,
                            journal=RunJournal.create(spec={},
                                                      directory=cache))
        first.run(jobs[:2])
        assert first.executed_jobs == 2
        journaled = RunJournal.load(first.journal.run_id, directory=cache)
        already_done = len(journaled.completed_jobs())
        assert already_done == 2

        # Resume: same store, full batch — only the missing job runs.
        resumed = SweepEngine(workers=0, cache_dir=cache, journal=journaled)
        results = resumed.run(jobs)
        assert len(results) == 3
        assert resumed.executed_jobs == len(jobs) - already_done
        assert len(journaled.completed_jobs()) == 3

    def test_journal_records_failures(self, tmp_path):
        cache = tmp_path / "shared"
        engine = SweepEngine(workers=0, cache_dir=cache, retries=0,
                             journal=RunJournal.create(spec={},
                                                       directory=cache))
        with inject_faults(raise_=1.0):
            engine.run([SimJob.from_call("mega", "cora", "gcn")],
                       on_error="degrade")
        loaded = RunJournal.load(engine.journal.run_id, directory=cache)
        assert len(loaded.failed_jobs()) == 1
        record = [r for r in loaded.records if r.get("status") == "failed"][0]
        assert "InjectedFault" in record["error"]

    def test_artifact_carries_run_id(self, tmp_path):
        engine = SweepEngine(workers=0, cache_dir=tmp_path / "c",
                             journal=RunJournal.create(
                                 spec={}, directory=tmp_path / "c"))
        artifact = _run(engine, "stall_table")
        assert artifact.metadata["run_id"] == engine.journal.run_id
        loaded = RunJournal.load(engine.journal.run_id,
                                 directory=tmp_path / "c")
        assert {r["name"] for r in loaded.records
                if r.get("type") == "experiment"} == {"stall_table"}


class TestFleetChaos:
    """Tentpole acceptance: a fresh-cache worker replaying a served
    corpus through a hostile network executes zero jobs, stays
    bit-identical to local execution, and never publishes a corrupt
    payload — every rejected transfer is retried (with backoff) or
    degraded, never trusted."""

    def test_fresh_worker_replays_through_hostile_network(self, tmp_path):
        from repro.eval.engine import temporary_cache_dir
        from repro.remote import RemoteStore
        from repro.serve import ServeConfig, ServerThread

        server_cache = tmp_path / "server-cache"
        warm = SweepEngine(workers=0, cache_dir=server_cache)
        baseline = _run(warm, "stall_table")
        assert warm.executed_jobs > 0
        assert len(warm.artifacts.ids()) > 0

        spec = "net_truncate=0.4,net_corrupt=0.4,net_503=0.3,net_stall=0.2"
        with temporary_cache_dir(server_cache):
            with ServerThread(ServeConfig(port=0, quiet=True)) as handle:
                with inject_faults(spec, seed=13):
                    worker = _fresh_engine(tmp_path, "worker")
                    worker.remote = RemoteStore(url=handle.url,
                                                store=worker.artifacts,
                                                backoff=0.01)
                    replayed = _run(worker, "stall_table")
                server_counters = dict(handle.server.counters)

        # Zero jobs executed: the whole corpus came over the wire.
        assert worker.executed_jobs == 0
        _assert_identical(baseline, replayed)
        remote = worker.stats()["remote"]
        assert remote["hits"] > 0 and remote["failures"] == 0
        # The chaos actually bit — damaged transfers were rejected and
        # re-pulled, and the server injected wire faults.
        assert remote["rejected"] + remote["resumed"] > 0
        assert server_counters["net_faults"] > 0
        assert server_counters["artifact_hits"] > 0
        # Zero corrupt payloads were ever published on the worker:
        # every local entry re-hashes and re-derives clean.
        report = worker.artifacts.verify()
        assert report["ok"] == report["checked"] > 0
        assert report["quarantined"] == []

    def test_hostile_network_never_hangs_an_unserved_sweep(self, tmp_path):
        """A worker whose remote holds nothing (or keeps failing)
        degrades to local execution — never a hung or failed sweep."""
        from repro.remote import RemoteStore

        baseline = _run(_fresh_engine(tmp_path, "clean"), "stall_table")
        worker = _fresh_engine(tmp_path, "orphan")
        worker.remote = RemoteStore(url="127.0.0.1:1", store=worker.artifacts,
                                    retries=0, backoff=0.01, timeout=2.0)
        replayed = _run(worker, "stall_table")
        assert worker.executed_jobs > 0  # degraded to execution
        _assert_identical(baseline, replayed)
        assert worker.stats()["remote"]["failures"] > 0
