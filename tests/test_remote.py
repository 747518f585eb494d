"""Verified remote artifact fetch (:mod:`repro.remote`).

Covers the distrust-everything contract end to end against a live
in-process ``repro serve``: round-trip fetch-and-publish, Range resume
of cut-short transfers, rejection (never publication) of corrupt,
truncated, and tampered bodies, convergence under every injected
``net_*`` kind, structured failure records that degrade to local
execution, and the engine's memory → disk → remote → execute
resolution order.
"""

import contextlib
import http.server
import json
import threading

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


def _fetcher(url, tmp_path, **kwargs):
    local = ArtifactStore(directory=tmp_path / "worker-cache")
    kwargs.setdefault("backoff", 0.01)
    return RemoteStore(url=url, store=local, **kwargs), local


class TestFetch:
    def test_round_trip_publishes_into_the_local_store(self, served,
                                                       tmp_path):
        handle, server_store, ids = served
        remote, local = _fetcher(handle.url, tmp_path)
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
        remote, _ = _fetcher(handle.url, tmp_path)
        assert remote.fetch("art_" + "0" * 16, "fallback") == "fallback"
        assert remote.misses == 1
        assert remote.failures == []  # a 404 is an answer, not an error

    def test_invalid_id_short_circuits(self, served, tmp_path):
        handle, _, _ = served
        remote, _ = _fetcher(handle.url, tmp_path)
        assert remote.fetch("not-an-id") is None
        assert remote.misses == 1 and remote.fetches == 1

    def test_unreachable_server_degrades_with_a_structured_failure(
            self, tmp_path):
        remote = RemoteStore(url="127.0.0.1:1",  # nothing listens here
                             store=ArtifactStore(directory=tmp_path / "w"),
                             retries=1, backoff=0.01, timeout=2.0)
        assert remote.fetch("art_" + "a" * 16, "fallback") == "fallback"
        assert len(remote.failures) == 1
        failure = remote.failures[0]
        assert failure.art_id == "art_" + "a" * 16
        assert failure.attempts == 2
        assert remote.stats()["failures"] == 1


class TestHostileNetwork:
    """Every injected damage kind is rejected before publish and the
    bounded retry converges on the true bytes."""

    @pytest.mark.parametrize("spec", ["net_corrupt=1.0", "net_truncate=1.0",
                                      "net_503=1.0", "net_stall=1.0"])
    def test_every_net_kind_converges(self, served, tmp_path, spec):
        handle, server_store, ids = served
        with inject_faults(spec, seed=7):
            remote, local = _fetcher(handle.url, tmp_path)
            for i, art_id in enumerate(ids):
                assert remote.fetch(art_id) == {"value": i,
                                                "pad": "x" * 600}
        # Zero corrupt payloads were ever published locally.
        report = local.verify()
        assert report["ok"] == 4 and report["quarantined"] == []
        assert remote.hits == 4 and remote.failures == []

    def test_server_truncation_resumes_via_range(self, served, tmp_path):
        handle, _, ids = served
        # net_truncate cuts every id's first payload transfer short at
        # rate 1.0; the fetcher resumes each from the received offset.
        with inject_faults("net_truncate=1.0", seed=7):
            remote, local = _fetcher(handle.url, tmp_path)
            values = [remote.fetch(i) for i in ids]
        assert all(v is not None for v in values)
        assert remote.resumed > 0  # IncompleteRead → Range continuation
        assert local.verify()["quarantined"] == []

    def test_corruption_is_rejected_and_counted(self, served, tmp_path):
        handle, _, ids = served
        with inject_faults("net_corrupt=1.0", seed=7):
            remote, local = _fetcher(handle.url, tmp_path)
            assert remote.fetch(ids[0]) is not None
        assert remote.rejected > 0
        assert remote.retries_used > 0
        assert local.verify()["quarantined"] == []

    def test_mixed_chaos_converges(self, served, tmp_path):
        handle, _, ids = served
        spec = "net_truncate=0.4,net_corrupt=0.4,net_503=0.3,net_stall=0.2"
        with inject_faults(spec, seed=11):
            remote, local = _fetcher(handle.url, tmp_path)
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

        remote, local = _fetcher(handle.url, tmp_path, retries=1)
        assert remote.fetch(victim, "fallback") == "fallback"
        assert remote.rejected == 2  # every attempt rejected
        assert len(remote.failures) == 1
        assert remote.failures[0].error_type == "ArtifactIntegrityError"
        assert "re-derive" in remote.failures[0].error
        assert victim not in local  # never published


@contextlib.contextmanager
def _stub_server(store, answer):
    """A stdlib HTTP server on a thread that serves ``store``'s manifests
    as stored and answers every payload request with ``answer(handler)``
    (``handler.reply(status, body, headers, length)`` writes it)."""

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def reply(self, status, body, headers=(), length=None):
            self.send_response(status)
            self.send_header("Content-Length",
                             str(len(body) if length is None else length))
            self.send_header("Connection", "close")
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True

        def do_GET(self):
            _, art_id, *rest = self.path.strip("/").split("/")
            if rest == ["manifest"]:
                self.reply(200, store.manifest_path(art_id).read_bytes())
            else:
                answer(self)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestWireDefenses:
    """The fetcher's own checks on a payload answer, against a stub
    server that scripts the answer: a 200 to a ``Range`` request
    restarts the buffer, a 206 at the wrong offset is a transport error,
    and an ``ETag`` that disagrees with the manifest is a rejection."""

    @staticmethod
    def _entry(tmp_path):
        store = ArtifactStore(directory=tmp_path / "stub-cache")
        art_id = store.put("demo", {"n": 0}, {"value": 0, "pad": "x" * 600},
                           producer=PRODUCER)
        etag = store.read_manifest(art_id)["payload_sha256"]
        return store, art_id, store.payload_path(art_id).read_bytes(), etag

    def test_full_answer_to_a_range_request_restarts_the_buffer(
            self, tmp_path):
        store, art_id, payload, etag = self._entry(tmp_path)
        headers = [("ETag", f'"{etag}"')]

        def answer(handler):
            if "Range" in handler.headers:  # ignore the range: full body
                handler.reply(200, payload, headers)
            else:  # cut short of the promised Content-Length
                handler.reply(200, payload[:len(payload) // 2], headers,
                              length=len(payload))

        with _stub_server(store, answer) as url:
            remote, local = _fetcher(url, tmp_path)
            assert remote.fetch(art_id) == {"value": 0, "pad": "x" * 600}
        assert remote.resumed == 1
        assert remote.retries_used == 0 and remote.rejected == 0
        assert local.read(art_id)[1] == payload

    def test_partial_answer_at_the_wrong_offset_is_retried(self, tmp_path):
        store, art_id, payload, etag = self._entry(tmp_path)
        headers = [("ETag", f'"{etag}"')]

        def answer(handler):
            if "Range" in handler.headers:  # resumes from byte 0
                handler.reply(206, payload, headers + [
                    ("Content-Range",
                     f"bytes 0-{len(payload) - 1}/{len(payload)}")])
            else:
                handler.reply(200, payload[:len(payload) // 2], headers,
                              length=len(payload))

        with _stub_server(store, answer) as url:
            remote, local = _fetcher(url, tmp_path, retries=1)
            assert remote.fetch(art_id, "fallback") == "fallback"
        (failure,) = remote.failures
        assert "wrong offset" in failure.error and failure.attempts == 2
        assert remote.rejected == 0
        assert local.ids() == []  # nothing published

    def test_etag_disagreeing_with_the_manifest_is_rejected(self, tmp_path):
        store, art_id, payload, _etag = self._entry(tmp_path)

        def answer(handler):  # the right bytes under the wrong hash
            handler.reply(200, payload, [("ETag", '"' + "0" * 64 + '"')])

        with _stub_server(store, answer) as url:
            remote, local = _fetcher(url, tmp_path, retries=1)
            assert remote.fetch(art_id, "fallback") == "fallback"
        assert remote.rejected == 2  # every attempt rejected
        (failure,) = remote.failures
        assert failure.error_type == "ArtifactIntegrityError"
        assert "ETag" in failure.error
        assert local.ids() == []  # never published


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
        assert set(worker.artifact_ids(jobs).values()) == {"sim-report"}
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
