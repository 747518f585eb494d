"""Verified remote artifact fetch (:mod:`repro.remote`).

Covers the distrust-everything contract end to end against a live
in-process ``repro serve``: round-trip fetch-and-publish, Range resume
of cut-short transfers, rejection (never publication) of corrupt,
truncated, and tampered bodies, convergence under every injected
``net_*`` kind, structured failure records that degrade to local
execution, and the engine's memory → disk → remote → execute
resolution order.
"""

import json

import pytest

from repro.artifacts import ArtifactStore
from repro.eval.engine import temporary_cache_dir
from repro.faults import inject_faults
from repro.remote import RemoteStore, remote_store_from_env
from repro.serve import ServeConfig, ServerThread

PRODUCER = "remote-test"


@pytest.fixture
def served(tmp_path):
    """A warm artifact store behind a live server; yields
    ``(handle, server_store, ids)``."""
    with temporary_cache_dir(tmp_path / "server-cache"):
        store = ArtifactStore(directory=tmp_path / "server-cache")
        ids = [store.put("demo", {"n": i},
                         {"value": i, "pad": "x" * 600}, producer=PRODUCER)
               for i in range(4)]
        with ServerThread(ServeConfig(port=0, quiet=True)) as handle:
            yield handle, store, ids


def _fetcher(handle, tmp_path, **kwargs):
    local = ArtifactStore(directory=tmp_path / "worker-cache")
    kwargs.setdefault("backoff", 0.01)
    return RemoteStore(url=handle.url, store=local, **kwargs), local


class TestFetch:
    def test_round_trip_publishes_into_the_local_store(self, served,
                                                       tmp_path):
        handle, server_store, ids = served
        remote, local = _fetcher(handle, tmp_path)
        value = remote.fetch(ids[0])
        assert value == {"value": 0, "pad": "x" * 600}
        # The verified download published through the staged protocol:
        # same id, same bytes, locally servable without the network.
        assert ids[0] in local
        assert local.get(ids[0]) == value
        assert (local.payload_path(ids[0]).read_bytes()
                == server_store.payload_path(ids[0]).read_bytes())
        assert local.verify()["ok"] == 1
        stats = remote.stats()
        assert stats["hits"] == 1 and stats["rejected"] == 0

    def test_unknown_id_is_a_miss_not_a_failure(self, served, tmp_path):
        handle, _, _ = served
        remote, _ = _fetcher(handle, tmp_path)
        assert remote.fetch("art_" + "0" * 16, "fallback") == "fallback"
        assert remote.misses == 1
        assert remote.failures == []  # a 404 is an answer, not an error

    def test_invalid_id_short_circuits(self, served, tmp_path):
        handle, _, _ = served
        remote, _ = _fetcher(handle, tmp_path)
        assert remote.fetch("not-an-id") is None
        assert remote.misses == 1 and remote.fetches == 1

    def test_unreachable_server_degrades_with_a_structured_failure(
            self, tmp_path):
        remote = RemoteStore(url="127.0.0.1:1",  # nothing listens here
                             store=ArtifactStore(directory=tmp_path / "w"),
                             retries=1, backoff=0.01, timeout=2.0)
        assert remote.fetch("art_" + "a" * 16, "fallback") == "fallback"
        assert len(remote.failures) == 1
        record = remote.failures[0].to_dict()
        assert record["id"] == "art_" + "a" * 16
        assert record["attempts"] == 2
        assert remote.stats()["failures"] == 1

    def test_index_negotiates_the_delta(self, served, tmp_path):
        handle, _, ids = served
        remote, _ = _fetcher(handle, tmp_path)
        assert sorted(remote.index()) == sorted(ids)
        assert remote.index(have=ids) == []
        delta = remote.index(have=ids[:2])
        assert sorted(delta) == sorted(ids[2:])


class TestHostileNetwork:
    """Every injected damage kind is rejected before publish and the
    bounded retry converges on the true bytes."""

    @pytest.mark.parametrize("spec", ["net_corrupt=1.0", "net_truncate=1.0",
                                      "net_503=1.0", "net_stall=1.0"])
    def test_every_net_kind_converges(self, served, tmp_path, spec):
        handle, server_store, ids = served
        with inject_faults(spec, seed=7):
            remote, local = _fetcher(handle, tmp_path)
            for i, art_id in enumerate(ids):
                assert remote.fetch(art_id) == {"value": i,
                                                "pad": "x" * 600}
        # Zero corrupt payloads were ever published locally.
        report = local.verify()
        assert report["ok"] == 4 and report["quarantined"] == []
        assert remote.hits == 4 and remote.failures == []

    def test_server_truncation_resumes_via_range(self, served, tmp_path):
        handle, _, ids = served
        # Server-side truncation only (the recv| client tokens decide
        # independently, so pick a seed where they stay quiet — rate
        # applies per token, and net_truncate fires on the net| side
        # for every id at rate 1.0 regardless).
        with inject_faults("net_truncate=1.0", seed=7):
            remote, local = _fetcher(handle, tmp_path)
            values = [remote.fetch(i) for i in ids]
        assert all(v is not None for v in values)
        assert remote.resumed > 0  # IncompleteRead → Range continuation
        assert local.verify()["quarantined"] == []

    def test_corruption_is_rejected_and_counted(self, served, tmp_path):
        handle, _, ids = served
        with inject_faults("net_corrupt=1.0", seed=7):
            remote, local = _fetcher(handle, tmp_path)
            assert remote.fetch(ids[0]) is not None
        assert remote.rejected > 0
        assert remote.retries_used > 0
        assert local.verify()["quarantined"] == []

    def test_mixed_chaos_converges(self, served, tmp_path):
        handle, _, ids = served
        spec = "net_truncate=0.4,net_corrupt=0.4,net_503=0.3,net_stall=0.2"
        with inject_faults(spec, seed=11):
            remote, local = _fetcher(handle, tmp_path)
            for i, art_id in enumerate(ids):
                assert remote.fetch(art_id) == {"value": i,
                                                "pad": "x" * 600}
        assert remote.failures == []
        assert local.verify()["quarantined"] == []

    def test_tampered_manifest_never_publishes(self, served, tmp_path):
        """A manifest whose id does not re-derive is rejected on every
        attempt — the fetch degrades instead of trusting the server."""
        handle, server_store, ids = served
        victim = ids[0]
        mpath = server_store.manifest_path(victim)
        manifest = json.loads(mpath.read_bytes())
        manifest["inputs"] = {"n": 999}  # self-consistent hash, wrong id
        mpath.write_text(json.dumps(manifest, sort_keys=True))

        remote, local = _fetcher(handle, tmp_path, retries=1)
        assert remote.fetch(victim, "fallback") == "fallback"
        assert remote.rejected == 2  # every attempt rejected
        assert len(remote.failures) == 1
        assert remote.failures[0].error_type == "ArtifactIntegrityError"
        assert "re-derive" in remote.failures[0].error
        assert victim not in local  # never published


class TestEngineReadThrough:
    def test_fresh_engine_resolves_through_the_remote_tier(self, tmp_path,
                                                           monkeypatch):
        from repro.eval.engine import SimJob, SweepEngine

        jobs = [SimJob.from_call("gcnax", "cora", "gcn")]
        with temporary_cache_dir(tmp_path / "server-cache"):
            warm = SweepEngine(workers=0,
                               cache_dir=tmp_path / "server-cache")
            local_rows = warm.run(jobs)
            assert warm.executed_jobs == 1
            with ServerThread(ServeConfig(port=0, quiet=True)) as handle:
                monkeypatch.setenv("REPRO_REMOTE_URL", handle.url)
                with inject_faults("net_corrupt=0.5,net_503=0.3", seed=5):
                    worker = SweepEngine(
                        workers=0, cache_dir=tmp_path / "worker-cache")
                    assert worker.remote is not None  # wired from env
                    worker.remote.backoff = 0.01
                    rows = worker.run(jobs)
        assert worker.executed_jobs == 0  # replayed, never re-executed
        import pickle

        assert pickle.dumps(rows[jobs[0]]) == pickle.dumps(
            local_rows[jobs[0]])  # bit-identical to local execution
        stats = worker.stats()
        assert stats["remote"]["hits"] == 1
        assert set(worker.consumed_artifacts.values()) == {"sim-report"}
        # Second run answers from memory: no further remote traffic.
        fetches = worker.remote.fetches
        worker.run(jobs)
        assert worker.remote.fetches == fetches

    def test_unreachable_remote_degrades_to_execution(self, tmp_path):
        from repro.eval.engine import SimJob, SweepEngine

        with temporary_cache_dir(tmp_path / "cache"):
            remote = RemoteStore("127.0.0.1:1", retries=0, backoff=0.01,
                                 timeout=2)
            engine = SweepEngine(workers=0, cache_dir=tmp_path / "cache",
                                 remote=remote)
            jobs = [SimJob.from_call("gcnax", "cora", "gcn")]
            rows = engine.run(jobs)
        assert engine.executed_jobs == 1  # never a hung sweep
        assert rows[jobs[0]] is not None
        assert engine.stats()["remote"]["failures"] == 1

    def test_no_env_means_no_remote_tier(self, tmp_path, monkeypatch):
        from repro.eval.engine import SweepEngine

        monkeypatch.delenv("REPRO_REMOTE_URL", raising=False)
        engine = SweepEngine(workers=0, cache_dir=tmp_path / "cache")
        assert engine.remote is None
        assert "remote" not in engine.stats()
        assert remote_store_from_env() is None
