"""The ``repro serve`` daemon and its client: admission control,
in-flight dedup, per-request deadlines, server-side fault injection,
graceful drain and restart recovery."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.client import ClientError, ServeClient, percentile, run_load
from repro.eval.engine import temporary_cache_dir
from repro.eval.journal import RunJournal, list_runs
from repro.faults import inject_faults
from repro.registry import EXPERIMENTS, ExperimentSpec
from repro.report import validate_artifact_dict
from repro.serve import ReproServer, ServeConfig, ServerThread

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def serve_cache(tmp_path):
    """A fresh engine + cache dir for the in-process server."""
    with temporary_cache_dir(tmp_path / "serve-cache"):
        yield tmp_path / "serve-cache"


@pytest.fixture
def sleeper():
    """Register a jobless experiment whose reducer sleeps: lets tests
    occupy the server's single executor thread for a known duration."""

    def build_jobs(**params):
        return {}

    def reduce(results, delay=0.2, tag=0):
        time.sleep(delay)
        return {"tag": tag}

    spec = ExperimentSpec(name="_serve_sleeper", description="test sleeper",
                          build_jobs=build_jobs, reduce=reduce,
                          defaults=(("delay", 0.2), ("tag", 0)))
    EXPERIMENTS.add("_serve_sleeper", spec)
    try:
        yield spec
    finally:
        EXPERIMENTS.unregister("_serve_sleeper")


def _thread_server(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("quiet", True)
    return ServerThread(ServeConfig(**config_kwargs))


class TestEndpoints:
    def test_healthz_readyz_stats(self, serve_cache):
        with _thread_server() as handle:
            client = ServeClient(handle.url)
            assert client.health()
            assert client.ready()
            stats = client.stats()
            assert stats["ready"] and not stats["draining"]
            assert stats["queue_depth"] >= 1
            assert "counters" in stats and "engine" in stats
            assert stats["counters"]["executed_runs"] == 0
        assert handle.exit_code == 0

    def test_unknown_route_404(self, serve_cache):
        with _thread_server() as handle:
            client = ServeClient(handle.url, retries=0)
            with pytest.raises(ClientError) as err:
                client.request_json("GET", "/nope")
            assert err.value.status == 404

    def test_unknown_experiment_400_no_retries_burned(self, serve_cache):
        with _thread_server() as handle:
            client = ServeClient(handle.url, retries=3)
            with pytest.raises(ClientError) as err:
                client.submit("no_such_experiment")
            assert err.value.status == 400
            assert client.attempts_total == 1  # permanent, not retried

    def test_suite_on_non_suite_experiment_400(self, serve_cache, sleeper):
        with _thread_server() as handle:
            client = ServeClient(handle.url, retries=0)
            with pytest.raises(ClientError) as err:
                client.submit("_serve_sleeper", suite="quick")
            assert err.value.status == 400


class TestSubmit:
    def test_cold_then_warm_executes_zero_jobs(self, serve_cache):
        with _thread_server() as handle:
            client = ServeClient(handle.url)
            first = client.submit("stall_table", suite="quick")
            assert first["failed"] == 0 and not first["deduped"]
            validate_artifact_dict(first["artifact"])
            assert first["run_id"] is not None
            executed = client.stats()["engine"]["executed"]["jobs"]
            assert executed > 0

            second = client.submit("stall_table", suite="quick")
            assert second["failed"] == 0
            assert second["artifact"]["rows"] == first["artifact"]["rows"]
            assert client.stats()["engine"]["executed"]["jobs"] == executed
        assert handle.exit_code == 0

    def test_served_run_is_journaled_complete(self, serve_cache):
        with _thread_server() as handle:
            response = ServeClient(handle.url).submit("stall_table",
                                                      suite="quick")
        journal = RunJournal.load(response["run_id"])
        assert journal.complete
        assert journal.spec["origin"] == "serve"
        assert journal.spec["experiment"] == "stall_table"
        assert len(journal.completed_jobs()) > 0

    def test_no_journal_config_skips_journaling(self, serve_cache):
        with _thread_server(journal=False) as handle:
            response = ServeClient(handle.url).submit("stall_table",
                                                      suite="quick")
            assert response["run_id"] is None
        assert list_runs() == []

    def test_identical_concurrent_requests_dedup(self, serve_cache, sleeper):
        with _thread_server() as handle:
            url = handle.url
            responses = []
            lock = threading.Lock()

            def submit():
                r = ServeClient(url).submit("_serve_sleeper",
                                            params={"delay": 1.0})
                with lock:
                    responses.append(r)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = ServeClient(url).stats()
            assert stats["counters"]["executed_runs"] == 1
            assert stats["counters"]["deduped"] >= 3
            assert sum(r["deduped"] for r in responses) >= 3
            rows = [r["artifact"]["rows"] for r in responses]
            assert all(r == rows[0] for r in rows)

    def test_distinct_params_do_not_dedup(self, serve_cache, sleeper):
        with _thread_server() as handle:
            client = ServeClient(handle.url)
            client.submit("_serve_sleeper", params={"delay": 0.0, "tag": 1})
            client.submit("_serve_sleeper", params={"delay": 0.0, "tag": 2})
            stats = client.stats()
            assert stats["counters"]["executed_runs"] == 2
            assert stats["counters"]["deduped"] == 0


class TestAdmissionControl:
    def test_queue_full_429_with_retry_after(self, serve_cache, sleeper):
        with _thread_server(queue_depth=1) as handle:
            url = handle.url
            leader = threading.Thread(
                target=lambda: ServeClient(url).submit(
                    "_serve_sleeper", params={"delay": 1.0, "tag": 1}))
            leader.start()
            try:
                deadline = time.monotonic() + 5
                status = None
                while time.monotonic() < deadline:
                    try:
                        # A *different* key, so it needs its own slot.
                        ServeClient(url, retries=0).submit(
                            "_serve_sleeper", params={"delay": 0.0,
                                                      "tag": 2})
                    except ClientError as err:
                        status = err.status
                        break
                    time.sleep(0.02)
                assert status == 429
                assert ServeClient(url).stats()["counters"]["rejected"] >= 1
            finally:
                leader.join()
            # Once the queue drains, the same request is admitted.
            response = ServeClient(url).submit("_serve_sleeper",
                                               params={"delay": 0.0,
                                                       "tag": 2})
            assert response["failed"] == 0

    def test_client_retries_through_backpressure(self, serve_cache, sleeper):
        with _thread_server(queue_depth=1) as handle:
            url = handle.url
            leader = threading.Thread(
                target=lambda: ServeClient(url).submit(
                    "_serve_sleeper", params={"delay": 0.6, "tag": 1}))
            leader.start()
            try:
                time.sleep(0.1)
                # Retries + Retry-After absorb the 429s.
                response = ServeClient(url, retries=6, backoff=0.2).submit(
                    "_serve_sleeper", params={"delay": 0.0, "tag": 2})
                assert response["failed"] == 0
            finally:
                leader.join()


class TestDeadlines:
    def test_deadline_returns_degrade_artifact(self, serve_cache, sleeper):
        with _thread_server() as handle:
            client = ServeClient(handle.url)
            response = client.submit("_serve_sleeper",
                                     params={"delay": 1.0},
                                     deadline_s=0.15)
            assert response["deadline_expired"] is True
            assert response["failed"] == 1
            artifact = response["artifact"]
            validate_artifact_dict(artifact)
            assert artifact["rows"] == []
            kinds = [e["kind"] for e in artifact["metadata"]["errors"]]
            assert kinds == ["deadline"]
            assert client.stats()["counters"]["deadline_expired"] == 1
            # The run keeps executing server-side and completes.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.stats()["counters"]["executed_runs"] == 1:
                    break
                time.sleep(0.05)
            assert client.stats()["counters"]["executed_runs"] == 1

    def test_bad_deadline_400(self, serve_cache, sleeper):
        with _thread_server() as handle:
            client = ServeClient(handle.url, retries=0)
            with pytest.raises(ClientError) as err:
                client.submit("_serve_sleeper", deadline_s="soon")
            assert err.value.status == 400


class TestServeFaults:
    def test_reject_fault_absorbed_by_retries(self, serve_cache, sleeper):
        with _thread_server() as handle:
            with inject_faults("serve_reject=1:1", seed=3):
                response = ServeClient(handle.url, retries=2,
                                       backoff=0.01).submit(
                    "_serve_sleeper", params={"delay": 0.0})
            assert response["failed"] == 0
            assert ServeClient(handle.url).stats()["counters"]["faults"] >= 1

    def test_drop_fault_absorbed_by_retries(self, serve_cache, sleeper):
        with _thread_server() as handle:
            with inject_faults("serve_drop=1:1", seed=3):
                response = ServeClient(handle.url, retries=2,
                                       backoff=0.01).submit(
                    "_serve_sleeper", params={"delay": 0.0})
            assert response["failed"] == 0

    def test_delay_fault_still_answers(self, serve_cache, sleeper):
        with _thread_server() as handle:
            with inject_faults("serve_delay=1:1", seed=3):
                response = ServeClient(handle.url, retries=0).submit(
                    "_serve_sleeper", params={"delay": 0.0})
            assert response["failed"] == 0

    def test_reject_fault_exhausts_unretried_client(self, serve_cache,
                                                    sleeper):
        with _thread_server() as handle:
            with inject_faults("serve_reject=1:1", seed=3):
                with pytest.raises(ClientError) as err:
                    ServeClient(handle.url, retries=0).submit(
                        "_serve_sleeper", params={"delay": 0.0})
            assert err.value.status == 503


def _serve_in_process(monkeypatch, argv, probe):
    """``repro serve <argv>`` in-process, with ``probe(server)`` run in
    place of the event loop; returns what the probe returned."""
    from repro.cli import main

    seen = []

    async def run(server):
        seen.append(probe(server))
        return 0

    monkeypatch.setattr(ReproServer, "run", run)
    assert main(["serve", "--port", "0", "--quiet", "--no-journal",
                 *argv]) == 0
    return seen[0]


def _failed_under(server, **faults):
    """Error types of one served stall_table run under ``faults``."""
    with inject_faults(**faults):
        result = server._execute_sync("stall_table", None,
                                      {"datasets": ["cora"]}, None)
    return [e["error_type"]
            for e in result["artifact"]["metadata"].get("errors", [])]


class TestServeFlags:
    """Each `repro serve` flag reaches the server or the engine it runs
    on, and the engine's settings are restored when the command ends."""

    @pytest.mark.parametrize("argv, probe, expected", [
        (["--queue-depth", "3"], lambda server: server.queue_depth, 3),
        (["--deadline", "1.5"], lambda server: server.deadline_s, 1.5),
        (["--drain-grace", "4"], lambda server: server.drain_grace_s, 4.0),
        (["--retries", "1"], lambda server: _failed_under(server, raise_=1.0),
         []),
        (["--timeout", "2"],
         lambda server: _failed_under(server, hang=(1.0, 1)), ["JobTimeout"]),
    ], ids=["queue-depth", "deadline", "drain-grace", "retries", "timeout"])
    def test_flag_takes_effect(self, serve_cache, monkeypatch, argv, probe,
                               expected):
        from repro.eval.engine import get_engine

        assert _serve_in_process(monkeypatch, argv, probe) == expected
        engine = get_engine()
        assert (engine.retries, engine.timeout) == (0, 0.0)

    def test_submit_client_retries(self, serve_cache, sleeper, capsys):
        from repro.cli import main

        with _thread_server() as handle:
            argv = ["submit", "_serve_sleeper", "--url", handle.url,
                    "--quiet"]
            with inject_faults("serve_reject=1:1", seed=3):
                assert main(argv + ["--client-retries", "0"]) == 2
            assert "HTTP 503" in capsys.readouterr().err
            with inject_faults("serve_reject=1:1", seed=3):
                assert main(argv + ["--client-retries", "1"]) == 0


class TestRecovery:
    def test_boot_readopts_unfinished_serve_runs(self, serve_cache):
        # A serve-origin journal with a header but no run-complete marker
        # is exactly what a SIGKILL'd daemon leaves behind.
        RunJournal.create(run_id="serve-crashed", spec={
            "origin": "serve", "experiment": "stall_table", "suite": None,
            "params": {"datasets": ["cora"], "accelerators": ["mega"]}})
        with _thread_server() as handle:
            stats = ServeClient(handle.url).stats()
            assert stats["counters"]["recovered_runs"] == 1
            assert stats["counters"]["recovery_failures"] == 0
        journal = RunJournal.load("serve-crashed")
        assert journal.complete
        assert len(journal.completed_jobs()) == 1  # cora x mega
        assert "resumed" in {r.get("type") for r in journal.records}

    def test_boot_skips_cli_runs_and_complete_runs(self, serve_cache):
        RunJournal.create(run_id="cli-unfinished", spec={
            "experiments": ["stall_table"]})
        done = RunJournal.create(run_id="serve-done", spec={
            "origin": "serve", "experiment": "stall_table", "suite": None,
            "params": {}})
        done.record_event("run-complete")
        with _thread_server() as handle:
            stats = ServeClient(handle.url).stats()
            assert stats["counters"]["recovered_runs"] == 0
        assert not RunJournal.load("cli-unfinished").complete

    def test_no_recover_config_skips_adoption(self, serve_cache):
        RunJournal.create(run_id="serve-crashed", spec={
            "origin": "serve", "experiment": "stall_table", "suite": None,
            "params": {}})
        with _thread_server(recover=False) as handle:
            assert ServeClient(handle.url).stats()["counters"][
                "recovered_runs"] == 0
        assert not RunJournal.load("serve-crashed").complete


class TestLoadGenerator:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([1.0], 0.99) == 1.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.5) == 51.0
        assert percentile(values, 0.99) == 99.0

    def test_run_load_summary_shape(self, serve_cache, sleeper):
        with _thread_server() as handle:
            summary = run_load(handle.url,
                               [{"experiment": "_serve_sleeper",
                                 "params": {"delay": 0.0}}],
                               clients=2, requests_per_client=2)
        assert summary["requests"] == 4
        assert summary["errors"] == 0 and summary["error_rate"] == 0.0
        assert summary["p50_ms"] <= summary["p99_ms"]
        assert summary["throughput_rps"] > 0
        assert summary["attempts"] >= 4


def _spawn_serve(cache_dir, port_file, extra_env=None, args=()):
    env = dict(os.environ, PYTHONPATH=SRC_ROOT,
               REPRO_CACHE_DIR=str(cache_dir))
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED"):
        env.pop(name, None)
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    deadline = time.monotonic() + 60
    while not Path(port_file).exists():
        if proc.poll() is not None:
            raise RuntimeError("serve exited: " + (proc.stderr.read() or ""))
        assert time.monotonic() < deadline, "no port file"
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{Path(port_file).read_text().strip()}"


class TestDaemonLifecycle:
    """Subprocess SIGTERM/SIGKILL behavior — the real process boundary."""

    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        proc, url = _spawn_serve(tmp_path / "cache", tmp_path / "port")
        try:
            client = ServeClient(url)
            assert client.wait_ready(60)
            result = {}

            def submit():
                result["response"] = client.submit("stall_table",
                                                   suite="quick")

            worker = threading.Thread(target=submit)
            worker.start()
            watcher = ServeClient(url)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:  # wait for admission
                if watcher.stats()["inflight"] >= 1:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            worker.join(timeout=30)
            assert code == 0, proc.stderr.read()
            # The in-flight request finished before the exit.
            assert result["response"]["failed"] == 0
            assert len(result["response"]["artifact"]["rows"]) > 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigkill_then_restart_readopts_journal(self, tmp_path):
        cache = tmp_path / "cache"
        # Phase 1: the first job hangs far past its (huge) timeout, so
        # the daemon dies mid-run with an unfinished journal.
        proc, url = _spawn_serve(
            cache, tmp_path / "port1",
            extra_env={"REPRO_FAULTS": "hang=1:1", "REPRO_FAULTS_SEED": "0"},
            args=("--timeout", "600"))
        try:
            client = ServeClient(url)
            assert client.wait_ready(60)
            response = client.submit("stall_table", suite="quick",
                                     deadline_s=0.5)
            assert response["deadline_expired"] is True
        finally:
            proc.kill()
            proc.wait()
        with temporary_cache_dir(cache):
            unfinished = [r for r in list_runs()
                          if not RunJournal.load(r).complete]
        assert len(unfinished) == 1

        # Phase 2: a clean restart re-adopts and finishes the run
        # before reporting ready.
        proc, url = _spawn_serve(cache, tmp_path / "port2")
        try:
            client = ServeClient(url)
            assert client.wait_ready(120)
            stats = client.stats()
            assert stats["counters"]["recovered_runs"] == 1
            assert stats["counters"]["recovery_failures"] == 0
            # Re-submitting is answered warm: no further execution.
            executed = stats["engine"]["executed"]["jobs"]
            warm = client.submit("stall_table", suite="quick")
            assert warm["failed"] == 0
            assert client.stats()["engine"]["executed"]["jobs"] == executed
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        with temporary_cache_dir(cache):
            assert [r for r in list_runs()
                    if not RunJournal.load(r).complete] == []


class TestArtifactEndpoints:
    """Tentpole (b): the artifact distribution API — payload + manifest
    with content-hash ETags, Range resume, and delta negotiation —
    behind the same admission/drain/stats machinery as POST /run."""

    @staticmethod
    def _get(url, path, headers=None):
        import http.client
        from urllib.parse import urlsplit

        parsed = urlsplit(url)
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                          timeout=30)
        try:
            conn.request("GET", path, headers=dict(headers or {}))
            response = conn.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        finally:
            conn.close()

    @staticmethod
    def _publish(serve_cache, n=1):
        from repro.artifacts import ArtifactStore

        store = ArtifactStore(directory=serve_cache)
        return store, [store.put("demo", {"n": i}, {"value": i},
                                 producer="serve-test") for i in range(n)]

    def test_payload_and_manifest_round_trip(self, serve_cache):
        store, (art_id,) = self._publish(serve_cache)
        expected = store.payload_path(art_id).read_bytes()
        manifest = store.read_manifest(art_id)
        with _thread_server() as handle:
            status, headers, body = self._get(handle.url,
                                              f"/artifacts/{art_id}")
            assert status == 200
            assert body == expected
            assert headers["ETag"] == f'"{manifest["payload_sha256"]}"'
            assert headers["Accept-Ranges"] == "bytes"
            assert headers["X-Repro-Artifact-Id"] == art_id
            status, headers, body = self._get(
                handle.url, f"/artifacts/{art_id}/manifest")
            assert status == 200
            served = json.loads(body)
            assert served["kind"] == "demo"
            assert served["payload_sha256"] == manifest["payload_sha256"]
            stats = ServeClient(handle.url).stats()
            counters = stats["counters"]
            assert counters["artifact_requests"] >= 2
            assert counters["artifact_hits"] >= 2
            assert counters["artifact_bytes"] == len(expected)

    def test_unknown_and_invalid_ids(self, serve_cache):
        with _thread_server() as handle:
            status, _, _ = self._get(handle.url,
                                     "/artifacts/art_" + "0" * 16)
            assert status == 404
            status, _, _ = self._get(handle.url, "/artifacts/not-an-id")
            assert status == 400
            status, _, _ = self._get(
                handle.url, "/artifacts/art_" + "0" * 16 + "/bogus")
            assert status == 404
            counters = ServeClient(handle.url).stats()["counters"]
            assert counters["artifact_misses"] >= 1

    def test_range_resume_and_416(self, serve_cache):
        store, (art_id,) = self._publish(serve_cache)
        expected = store.payload_path(art_id).read_bytes()
        etag = store.read_manifest(art_id)["payload_sha256"]
        with _thread_server() as handle:
            offset = len(expected) // 2
            status, headers, body = self._get(
                handle.url, f"/artifacts/{art_id}",
                headers={"Range": f"bytes={offset}-", "If-Range": etag})
            assert status == 206
            assert body == expected[offset:]
            assert headers["Content-Range"] == (
                f"bytes {offset}-{len(expected) - 1}/{len(expected)}")
            # A stale If-Range validator falls back to the full body.
            status, _, body = self._get(
                handle.url, f"/artifacts/{art_id}",
                headers={"Range": f"bytes={offset}-",
                         "If-Range": "stale-validator"})
            assert status == 200 and body == expected
            # Past-the-end start: 416 with the total advertised.
            status, headers, _ = self._get(
                handle.url, f"/artifacts/{art_id}",
                headers={"Range": f"bytes={len(expected)}-"})
            assert status == 416
            assert headers["Content-Range"] == f"bytes */{len(expected)}"

    def test_index_delta_negotiation(self, serve_cache):
        _, ids = self._publish(serve_cache, 3)
        with _thread_server() as handle:
            status, _, body = self._get(handle.url, "/artifacts/index")
            assert status == 200
            listing = json.loads(body)
            assert sorted(listing["ids"]) == sorted(ids)
            assert listing["total"] == 3 and listing["matched"] == 0
            have = ",".join(ids[:2])
            status, _, body = self._get(handle.url,
                                        f"/artifacts/index?have={have}")
            delta = json.loads(body)
            assert delta["ids"] == [ids[2]]
            assert delta["matched"] == 2

    def test_corrupt_entry_is_quarantined_not_served(self, serve_cache):
        store, (art_id,) = self._publish(serve_cache)
        payload = store.payload_path(art_id)
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        with _thread_server() as handle:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                status, _, _ = self._get(handle.url,
                                         f"/artifacts/{art_id}")
            assert status == 404  # never a wrong artifact

    def test_net_faults_damage_the_wire_not_the_store(self, serve_cache):
        store, (art_id,) = self._publish(serve_cache)
        expected = store.payload_path(art_id).read_bytes()
        with inject_faults("net_corrupt=1.0", seed=1):
            with _thread_server() as handle:
                status, _, body = self._get(
                    handle.url, f"/artifacts/{art_id}",
                    headers={"X-Repro-Attempt": "0"})
                assert status == 200
                assert len(body) == len(expected) and body != expected
                # Retries are never re-damaged: bounded chaos converges.
                status, _, body = self._get(
                    handle.url, f"/artifacts/{art_id}",
                    headers={"X-Repro-Attempt": "1"})
                assert status == 200 and body == expected
                counters = ServeClient(handle.url).stats()["counters"]
                assert counters["net_faults"] == 1
        assert store.verify()["quarantined"] == []  # store undamaged

    def test_net_truncate_forges_content_length(self, serve_cache):
        """Truncate declares the full Content-Length but sends half the
        body — the exact wire shape that makes a naive client hang or
        mis-publish, and that drives the fetcher's Range resume."""
        import http.client
        from urllib.parse import urlsplit

        store, (art_id,) = self._publish(serve_cache)
        expected = store.payload_path(art_id).read_bytes()
        with inject_faults("net_truncate=1.0", seed=1):
            with _thread_server() as handle:
                parsed = urlsplit(handle.url)
                conn = http.client.HTTPConnection(parsed.hostname,
                                                  parsed.port, timeout=30)
                try:
                    conn.request("GET", f"/artifacts/{art_id}",
                                 headers={"X-Repro-Attempt": "0"})
                    response = conn.getresponse()
                    assert response.status == 200
                    declared = int(response.getheader("Content-Length"))
                    assert declared == len(expected)
                    with pytest.raises(http.client.IncompleteRead) as info:
                        response.read()
                    partial = info.value.partial or b""
                    assert partial == expected[:len(expected) // 2]
                finally:
                    conn.close()

    def test_net_503_sets_retry_after(self, serve_cache):
        _, (art_id,) = self._publish(serve_cache)
        with inject_faults("net_503=1.0", seed=1):
            with _thread_server() as handle:
                status, headers, _ = self._get(
                    handle.url, f"/artifacts/{art_id}",
                    headers={"X-Repro-Attempt": "0"})
                assert status == 503
                assert headers["Retry-After"] == "1"
