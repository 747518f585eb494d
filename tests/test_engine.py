"""Tests for the sweep engine: parallel/serial identity, artifact-store
round trips of job results and memos, and content-keyed invalidation."""

import re
from pathlib import Path

import pytest

from repro.eval.engine import SimJob, SweepEngine, get_engine
from repro.eval.experiments import clear_caches, simulate
from repro.perf.cache import cache_stats, cached_load_dataset
from repro.perf.timers import Timer
from repro.sim.accelerator import SimReport
from repro.sim.workload import build_workload

JOBS = [SimJob.from_call(name, dataset, "gcn")
        for dataset in ("cora", "citeseer")
        for name in ("hygcn", "gcnax", "mega")]


class TestSimJob:
    def test_precision_pairing(self):
        assert SimJob.from_call("mega", "cora", "gcn").precision == "degree-aware"
        assert SimJob.from_call("hygcn-8bit", "cora", "gcn").precision == "int8"
        assert SimJob.from_call("hygcn", "cora", "gcn").precision == "fp32"

    def test_variant_kwargs_sorted_and_hashable(self):
        a = SimJob.from_call("mega", "cora", "gcn",
                             {"storage": "bitmap", "condense": False})
        b = SimJob.from_call("mega", "cora", "gcn",
                             {"condense": False, "storage": "bitmap"})
        assert a == b and hash(a) == hash(b)
        assert a.variant_label == "condense=False+storage=bitmap"

    def test_variant_on_baseline_rejected(self, sweep_engine):
        job = SimJob.from_call("hygcn", "cora", "gcn", {"condense": False})
        with pytest.raises(ValueError):
            sweep_engine.run([job])


class TestSweepEngine:
    def test_matches_pre_engine_direct_path(self, sweep_engine):
        """Engine results are bit-identical to directly-built models."""
        from repro.baselines import build_baseline
        from repro.mega import MegaModel

        graph = cached_load_dataset("cora", scale="sim")
        direct_base = build_baseline("gcnax").simulate(
            build_workload("cora", "gcn", "fp32", graph=graph))
        direct_mega = MegaModel().simulate(
            build_workload("cora", "gcn", "degree-aware", graph=graph))
        assert simulate("gcnax", "cora", "gcn") == direct_base
        assert simulate("mega", "cora", "gcn") == direct_mega

    def test_batch_deduplicates(self, sweep_engine):
        job = JOBS[0]
        reports = sweep_engine.run([job, job, job])
        assert sweep_engine.executed_jobs == 1
        assert isinstance(reports[job], SimReport)

    def test_parallel_identical_to_serial(self, sweep_engine, tmp_path):
        serial = sweep_engine.run(JOBS)
        parallel_engine = SweepEngine(workers=2,
                                      cache_dir=tmp_path / "parallel-cache")
        parallel = parallel_engine.run(JOBS)
        assert parallel_engine.executed_jobs == len(JOBS)
        assert parallel_engine.pool_used
        assert not sweep_engine.pool_used
        for job in JOBS:
            assert parallel[job] == serial[job], job

    def test_disk_cache_hit_returns_equal_report(self, sweep_engine, tmp_path):
        job = SimJob.from_call("gcnax", "cora", "gcn")
        with Timer() as cold_t:
            cold = sweep_engine.run([job])[job]
        # A brand-new engine over the same store must replay from disk.
        replay_engine = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
        with Timer() as warm_t:
            warm = replay_engine.run([job])[job]
        assert replay_engine.executed_jobs == 0
        assert warm == cold
        assert warm is not cold  # unpickled, not the same object
        assert cold_t.elapsed >= 5 * warm_t.elapsed, \
            (cold_t.elapsed, warm_t.elapsed)

    def test_memory_cache_returns_same_object(self, sweep_engine):
        a = simulate("gcnax", "cora", "gcn")
        b = simulate("gcnax", "cora", "gcn")
        assert a is b

    def test_failed_job_keeps_completed_work(self, sweep_engine, tmp_path):
        good = SimJob.from_call("gcnax", "cora", "gcn")
        bad = SimJob.from_call("gcnax", "citeseer", "gcn", {"condense": False})
        with pytest.raises(ValueError):
            sweep_engine.run([good, bad])
        # the good job was persisted before the failure surfaced
        replay = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
        replay.run([good])
        assert replay.executed_jobs == 0

    def test_parallel_failed_chunk_keeps_other_chunks(self, sweep_engine, tmp_path):
        good = SimJob.from_call("gcnax", "cora", "gcn")
        bad = SimJob.from_call("gcnax", "citeseer", "gcn", {"condense": False})
        parallel_engine = SweepEngine(workers=2, cache_dir=tmp_path / "par-cache")
        with pytest.raises(ValueError):
            parallel_engine.run([good, bad])
        replay = SweepEngine(workers=0, cache_dir=tmp_path / "par-cache")
        replay.run([good])
        assert replay.executed_jobs == 0

    def test_workload_honors_every_precision(self, sweep_engine):
        """Non-standard precisions build real workloads, never fp32 proxies."""
        wl = sweep_engine.workload("cora", "gcn", "uniform-int8")
        assert wl.precision == "uniform-int8"
        assert (wl.layers[0].input_bits == 8).all()
        assert wl.layers[0].weight_bits == 8
        with pytest.raises(ValueError):
            sweep_engine.workload("cora", "gcn", "float16")

    def test_workload_disk_round_trip(self, sweep_engine, tmp_path):
        wl = sweep_engine.workload("cora", "gcn", "degree-aware")
        replay_engine = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
        wl2 = replay_engine.workload("cora", "gcn", "degree-aware")
        assert wl2.name == wl.name
        assert (wl2.adjacency != wl.adjacency).nnz == 0
        for l2, l1 in zip(wl2.layers, wl.layers):
            assert (l2.input_bits == l1.input_bits).all()
            assert (l2.input_nnz == l1.input_nnz).all()

    def test_memo_round_trip_loads_no_dataset(self, sweep_engine, tmp_path):
        """A second engine on the same store resolves graph fingerprints
        and tables from their ``memo`` artifacts: no dataset is loaded
        and no table recomputed."""
        fingerprint = sweep_engine.dataset_fingerprint("cora")
        table = sweep_engine.cached_table(("unit", fingerprint),
                                          lambda: {"rows": [1.5, 2.5]})
        clear_caches()  # engine memory and the dataset cache
        replay = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
        assert replay.dataset_fingerprint("cora") == fingerprint
        assert replay.cached_table(
            ("unit", fingerprint),
            lambda: pytest.fail("table was recomputed")) == table
        assert cache_stats()["dataset"]["misses"] == 0
        kinds = {entry["kind"] for entry in replay.artifacts.list_entries()}
        assert kinds == {"memo"}


class TestCacheInvalidation:
    def test_fingerprint_stable(self, sweep_engine):
        job = SimJob.from_call("mega", "cora", "gcn")
        assert sweep_engine.job_fingerprint(job) == sweep_engine.job_fingerprint(job)

    def test_fingerprint_tracks_accelerator_config(self, sweep_engine):
        base = sweep_engine.job_fingerprint(SimJob.from_call("mega", "cora", "gcn"))
        ablated = sweep_engine.job_fingerprint(
            SimJob.from_call("mega", "cora", "gcn", {"condense": False}))
        other_acc = sweep_engine.job_fingerprint(
            SimJob.from_call("hygcn", "cora", "gcn"))
        target = sweep_engine.job_fingerprint(
            SimJob.from_call("mega", "cora", "gcn", target_average_bits=4.0))
        assert len({base, ablated, other_acc, target}) == 4

    def test_fingerprint_tracks_graph_content(self, sweep_engine):
        same = SimJob.from_call("mega", "cora", "gcn")
        other_dataset = SimJob.from_call("mega", "citeseer", "gcn")
        other_seed = SimJob.from_call("mega", "cora", "gcn", seed=1)
        fps = {sweep_engine.job_fingerprint(j)
               for j in (same, other_dataset, other_seed)}
        assert len(fps) == 3
        assert (sweep_engine.dataset_fingerprint("cora")
                != sweep_engine.dataset_fingerprint("cora", seed=1))

    def test_clear_caches_resets_engine_state(self, sweep_engine):
        simulate("gcnax", "cora", "gcn")
        assert sweep_engine.executed_jobs == 1
        clear_caches()
        assert sweep_engine.executed_jobs == 0
        assert len(sweep_engine.reports) == 0
        # Disk survives a memory clear: the rerun replays, not recomputes.
        simulate("gcnax", "cora", "gcn")
        assert sweep_engine.executed_jobs == 0


class TestCacheRaces:
    """Concurrent-writer and mid-sweep degradation races on ``memo``
    artifacts."""

    def test_concurrent_writers_same_key(self, tmp_path):
        """Two processes memoizing the same table at once converge on one
        complete entry, never a torn interleaving."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)

        def writer():
            engine = SweepEngine(workers=0, cache_dir=tmp_path)
            barrier.wait()  # maximize the publish collision
            engine.cached_table(("contested",), lambda: ["a"] * 100)

        procs = [ctx.Process(target=writer) for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        reader = SweepEngine(workers=0, cache_dir=tmp_path)
        assert reader.cached_table(
            ("contested",),
            lambda: pytest.fail("memo was recomputed")) == ["a"] * 100
        report = reader.artifacts.verify()
        assert report["checked"] == report["ok"] == 1
        assert reader.artifacts.stats()["tmp_entries"] == 0

    def test_reader_hitting_half_replaced_entry(self, sweep_engine,
                                                tmp_path):
        """A reader that catches a memo torn short of its manifest's size
        quarantines it and recomputes an equal value instead of serving
        the torn bytes."""
        table = sweep_engine.cached_table(("half",),
                                          lambda: list(range(100)))
        store = sweep_engine.artifacts
        (art_id,) = store.ids()
        payload = store.payload_path(art_id)
        data = payload.read_bytes()
        payload.write_bytes(data[:len(data) // 2])
        replay = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert replay.cached_table(("half",),
                                       lambda: list(range(100))) == table
        assert replay.artifacts.quarantined == 1
        assert replay.artifacts.verify()["ok"] == 1  # republished clean

    def test_readonly_cache_dir_mid_sweep_degrades_once(self, tmp_path):
        """A store that turns read-only mid-sweep (injected: the test
        runs as root, where chmod cannot produce EACCES) warns exactly
        once and keeps computing memos instead of failing."""
        import warnings as warnings_mod

        from repro.faults import inject_faults

        engine = SweepEngine(workers=0, cache_dir=tmp_path)
        engine.cached_table(("before",), lambda: 1)  # store starts healthy
        with inject_faults(cache_readonly=1.0):
            with pytest.warns(RuntimeWarning, match="rebuild-on-demand"):
                assert engine.cached_table(("during", 0), lambda: 2) == 2
            with warnings_mod.catch_warnings():
                warnings_mod.simplefilter("error")
                assert engine.cached_table(("during", 1), lambda: 3) == 3
        engine.clear_memory()
        assert engine.cached_table(
            ("before",), lambda: pytest.fail("memo was recomputed")) == 1
        # Only the latching put counts; later puts are skipped outright.
        assert engine.artifacts.write_failures == 1
        assert engine.artifacts.puts == 1


class TestChunkSplitting:
    """Oversized scenarios chunk per job so one huge dataset fans out."""

    def test_small_scenarios_chunk_per_dataset(self):
        from repro.eval.engine import _chunk_key

        jobs = [SimJob.from_call(acc, "powerlaw-10k", "gcn")
                for acc in ("mega", "gcnax")]
        keys = {_chunk_key(job) for job in jobs}
        assert keys == {("powerlaw-10k", 0)}

    def test_huge_scenarios_chunk_per_job(self):
        from repro.eval.engine import _chunk_key

        jobs = [SimJob.from_call(acc, "powerlaw-500k", "gcn")
                for acc in ("mega", "gcnax")]
        keys = {_chunk_key(job) for job in jobs}
        assert keys == set(jobs)

    def test_threshold_env_knob(self, monkeypatch):
        from repro.eval import engine as engine_mod

        job = SimJob.from_call("mega", "powerlaw-10k", "gcn")
        assert engine_mod._chunk_key(job) == ("powerlaw-10k", 0)
        monkeypatch.setattr(engine_mod, "_CHUNK_SPLIT_NODES", 5000)
        assert engine_mod._chunk_key(job) == job

    def test_paper_datasets_carry_size_hints(self):
        from repro.registry import get_dataset

        assert get_dataset("cora").size_hint == 2708
        assert get_dataset("powerlaw-500k").size_hint == 500_000
        assert get_dataset("reddit").size_hint > 0


class TestSupervisionPolicy:
    """Engine-level retry/timeout/degrade plumbing (the chaos suite in
    ``test_chaos.py`` exercises the full fault matrix)."""

    def test_policy_defaults_come_from_env(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path)
        assert (engine.workers, engine.retries, engine.timeout,
                engine.backoff, engine.batch) == (0, 0, 0.0, 0.05, True)
        pinned = SweepEngine(workers=0, cache_dir=tmp_path, retries=1,
                             timeout=2.0, backoff=0.1)
        assert (pinned.retries, pinned.timeout, pinned.backoff) \
            == (1, 2.0, 0.1)

    def test_bad_on_error_rejected(self, tmp_path):
        engine = SweepEngine(workers=0, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="on_error"):
            engine.run([], on_error="explode")

    def test_degrade_returns_partial_results(self, tmp_path):
        from repro.faults import inject_faults

        engine = SweepEngine(workers=0, cache_dir=tmp_path)
        jobs = [SimJob.from_call(acc, "cora", "gcn")
                for acc in ("hygcn", "gcnax", "mega")]
        with inject_faults(raise_=0.5, seed=1) as injector:
            doomed = [j for j in jobs
                      if injector.plan.decide("raise", repr(j))]
            assert 0 < len(doomed) < len(jobs)  # seed picked a real split
            results = engine.run(jobs, on_error="degrade")
        assert set(results) == set(jobs) - set(doomed)
        assert {f.job for f in engine.failures} == set(doomed)
        assert engine.executed_jobs == len(jobs) - len(doomed)
        assert engine.stats()["executed"]["failed_jobs"] == len(doomed)
        engine.clear_memory()
        assert engine.failures == []

    def test_retries_recover_and_count_one_execution(self, tmp_path):
        from repro.faults import inject_faults

        engine = SweepEngine(workers=0, cache_dir=tmp_path, retries=1,
                             backoff=0.0)
        job = SimJob.from_call("mega", "cora", "gcn")
        with inject_faults(raise_=1.0):
            results = engine.run([job])
        assert job in results
        assert engine.executed_jobs == 1  # the success, not the attempts
        assert engine.failures == []

    def test_raise_mode_stores_completed_prefix(self, tmp_path):
        """Fail-fast still checkpoints: jobs that completed before the
        failure are on disk, so a rerun executes only what never ran."""
        from repro.faults import FaultPlan, InjectedFault, inject_faults

        engine = SweepEngine(workers=0, cache_dir=tmp_path)
        jobs = [SimJob.from_call(acc, "cora", "gcn")
                for acc in ("hygcn", "gcnax", "mega")]
        # Pick a (deterministic) seed whose first victim is mid-batch,
        # so there is a completed prefix to checkpoint.
        for seed in range(64):
            plan = FaultPlan(rates=(("raise", 0.5),), seed=seed)
            doomed = [i for i, j in enumerate(jobs)
                      if plan.decide("raise", repr(j))]
            if doomed and doomed[0] > 0:
                break
        else:
            pytest.fail("no seed with a mid-batch first victim")
        with inject_faults(raise_=0.5, seed=seed):
            with pytest.raises(InjectedFault):
                engine.run(jobs)
        rerun = SweepEngine(workers=0, cache_dir=tmp_path)
        rerun.run(jobs)
        assert rerun.executed_jobs == len(jobs) - doomed[0]


def test_default_engine_is_shared():
    assert get_engine() is get_engine()


class TestEnvironmentSurface:
    def test_repro_names_under_src_match_the_readme_table(self):
        """The environment names only deployment locations and the fault
        harness; every tuning setting is a flag or constructor argument.
        README's knob table lists exactly the names the package reads."""
        root = Path(__file__).resolve().parents[1]
        names = {match for path in (root / "src").rglob("*.py")
                 for match in re.findall(r"REPRO_[A-Z0-9_]+",
                                         path.read_text())}
        assert names == {"REPRO_CACHE_DIR", "REPRO_FAULTS",
                         "REPRO_FAULTS_SEED", "REPRO_REMOTE_URL",
                         "REPRO_SERVE_URL"}
        readme = (root / "README.md").read_text()
        section = readme.split("### Environment knobs", 1)[1]
        section = section.split("\n#", 1)[0]
        rows = re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M)
        assert sorted(rows) == sorted(names)
