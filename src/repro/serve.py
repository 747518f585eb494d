"""``repro serve`` — a crash-tolerant, backpressured sweep service.

A long-running daemon that keeps the process-wide sweep engine (memory
caches, artifact store, supervisor pool) hot and accepts experiment
requests over HTTP — the same declarative ``(experiment, suite,
params)`` specs :mod:`repro.registry` defines and the CLI runs.  Built
on stdlib asyncio only; one request == one run spec (``origin``
``"serve"``) run by :func:`repro.report.run_journaled`, journaled once
it executes a job (a warm request answers ``run_id`` null).

Robustness properties, each of which tests/CI exercise directly:

- **Admission control** — at most ``queue_depth`` (``--queue-depth``)
  requests may be admitted (queued + running) at once; beyond that the
  server answers ``429`` with a ``Retry-After`` hint derived from
  recent execution latency, so load sheds at the edge instead of
  queueing unboundedly.
- **In-flight dedup** — identical concurrent requests (same experiment,
  suite and canonical params) share one execution; followers attach to
  the leader's task and every response is annotated with
  ``metadata["serve"]["deduped"]``.
- **Per-request deadlines** — layered on the engine's per-job
  ``timeout`` (``--timeout``): when a request's ``deadline_s`` (or the
  server-wide ``--deadline``) expires, the *client* gets a
  schema-valid degrade artifact immediately (empty rows,
  ``metadata["errors"]`` carrying a ``deadline`` record) while the
  sweep keeps running server-side — its jobs land in the artifact
  store and journal, so a retry is answered warm.
- **Graceful drain** — SIGTERM/SIGINT stop admission (requests get
  503), let in-flight runs finish and journal, then exit 0.  If the
  drain grace (``--drain-grace``) expires first, the exit code is
  nonzero and the unfinished runs stay resumable.
- **Restart recovery** — on boot, before reporting ready, the server
  fills the registries, builds its engine, and re-runs every
  serve-origin :class:`RunJournal` that ended neither ``run-complete``
  nor ``run-failed`` (completed jobs replay from the artifact store),
  so a SIGKILL'd daemon loses no accepted work and a failing run is
  tried once (``repro run --resume`` can still retry it).

Endpoints: ``GET /healthz`` (process liveness), ``GET /readyz``
(recovery finished, not draining), ``GET /stats`` (queue depth,
in-flight, dedup/reject/deadline counters, engine + cache stats),
``POST /run`` (``{"experiment": ..., "suite": ..., "params": {...},
"deadline_s": ...}``), plus the artifact-distribution surface a worker
fleet pulls warm results through (see :mod:`repro.remote` for the
fetch client):

- ``GET /artifacts/<id>`` — the raw payload bytes, after the entry
  passes :func:`repro.artifacts.admit` (a corrupt entry is quarantined
  and answered 404, never served).  ``ETag`` carries the payload's
  sha256; ``Range: bytes=<n>-`` resumes a cut-short transfer
  (``If-Range`` guards against the entry changing between chunks,
  which content addressing already forbids).
- ``GET /artifacts/<id>/manifest`` — the stored manifest JSON as is;
  the fetcher admits it before requesting the payload.

Artifact reads bypass the ``/run`` executor (they never touch the
engine) but honor drain: a draining server answers 503 so clients fail
over or retry elsewhere.

Request-path fault injection (``serve_drop`` / ``serve_delay`` /
``serve_reject`` in ``REPRO_FAULTS``) applies at the top of ``POST
/run`` handling, and the hostile-network kinds (``net_truncate`` /
``net_corrupt`` / ``net_503`` / ``net_stall``) at the artifact
response path — the body cut short, a byte flipped in flight, a 503,
a stall.  Both read the client's ``X-Repro-Attempt`` (which
:meth:`repro.client.ServeClient.connect` stamps on every request) and
fire only on attempt 0, so :class:`repro.client.ServeClient`'s and
:class:`repro.remote.RemoteStore`'s bounded retries always converge.

:class:`ServerThread` runs the whole server inside the current process
on a background thread — the harness the test-suite uses when a
subprocess is not wanted.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from .registry import RegistryError
from .report import check_run_spec, run_journaled

__all__ = ["ServeConfig", "ReproServer", "ServerThread"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 1024 * 1024
_IO_TIMEOUT_S = 30.0
_FAULT_DELAY_S = 0.05
_REASONS = {200: "OK", 206: "Partial Content", 400: "Bad Request",
            404: "Not Found", 416: "Range Not Satisfiable",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


@dataclass
class ServeConfig:
    """Static configuration for one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    port: int = 8642                  # 0 = ephemeral (see --port-file)
    port_file: Optional[str] = None   # write the bound port here
    queue_depth: int = 32             # admitted requests before 429
    deadline_s: float = 0.0           # default per-request deadline, 0 = none
    drain_grace_s: float = 30.0       # SIGTERM wait for in-flight runs
    workers: Optional[int] = None     # every run spec's workers
    journal: bool = True              # journal runs that execute a job
    recover: bool = True              # re-adopt unfinished runs on boot
    quiet: bool = False


class ReproServer:
    """The asyncio server; construct then ``asyncio.run(server.run())``.

    All engine work funnels through a single executor thread: the
    engine already parallelizes cold batches across its own supervised
    worker pool, and serializing at the request level keeps the
    engine's journal attachment race-free.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.queue_depth = max(self.config.queue_depth, 1)
        self.deadline_s = self.config.deadline_s
        self.drain_grace_s = self.config.drain_grace_s

        self.port: Optional[int] = None  # bound port, set inside run()
        self.ready = False
        self.draining = False
        self.unfinished = 0           # in-flight runs abandoned by drain
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._executor = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._admitted = 0
        self._open_requests = 0
        self._ema_latency_s: Optional[float] = None
        from collections import deque
        self._latencies = deque(maxlen=1024)  # recent /run response times
        self._started_at = time.time()
        self.counters: Dict[str, int] = {
            "requests": 0, "completed": 0, "deduped": 0, "rejected": 0,
            "failed": 0, "deadline_expired": 0, "faults": 0,
            "executed_runs": 0, "recovered_runs": 0, "recovery_failures": 0,
            "artifact_requests": 0, "artifact_hits": 0,
            "artifact_misses": 0, "artifact_bytes": 0, "net_faults": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def run(self) -> int:
        """Serve until a stop is requested; returns the process exit
        code (0 on a clean drain, 1 when the drain grace expired with
        runs still in flight — those stay journaled and resumable)."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._install_signal_handlers()

        server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port, limit=_MAX_HEADER_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(str(self.port))
        self._log(f"listening on {self.config.host}:{self.port}")

        await self._loop.run_in_executor(self._executor, self._boot_sync)
        self.ready = True
        self._log("ready")

        await self._stop.wait()
        code = await self._drain()
        server.close()
        await server.wait_closed()
        self._executor.shutdown(wait=(code == 0))
        return code

    def request_stop(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (ServerThread) or an unsupported
                # platform; the harness calls request_stop() directly.
                return

    async def _drain(self) -> int:
        self.draining = True
        self._log(f"draining: {len(self._inflight)} run(s) in flight, "
                  f"{self._open_requests} open request(s)")
        deadline = self._loop.time() + max(self.drain_grace_s, 0.0)
        while self._inflight or self._open_requests:
            if self._loop.time() >= deadline:
                self.unfinished = len(self._inflight)
                self._log(f"drain grace ({self.drain_grace_s:g}s) expired "
                          f"with {self.unfinished} run(s) unfinished; "
                          f"they remain journaled and resumable")
                return 1
            await asyncio.sleep(0.05)
        self._log("drained cleanly")
        return 0

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(f"[serve] {message}", file=sys.stderr, flush=True)

    # -- connection / HTTP plumbing ----------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except ConnectionError:
            pass
        except Exception as exc:  # never let a handler kill the loop
            with contextlib.suppress(Exception):
                self._respond(writer, 500, {"error": f"{type(exc).__name__}: "
                                                     f"{exc}"})
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout=_IO_TIMEOUT_S)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            return None
        try:
            text = head.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, path, _ = request_line.split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if 0 < length <= _MAX_BODY_BYTES:
            try:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              timeout=_IO_TIMEOUT_S)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ConnectionError):
                return None
        return method.upper(), path, headers, body

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 body, extra_headers: Tuple[Tuple[str, str], ...] = (),
                 declared_length: Optional[int] = None,
                 content_type: str = "application/json") -> None:
        """Write one response: ``body`` is a JSON-able map, or bytes
        sent as they are.  ``declared_length`` may exceed the body's
        length — that is exactly how the ``net_truncate`` fault forges a
        mid-transfer connection cut (the client sees a short body
        against the promised Content-Length)."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        length = len(data) if declared_length is None else declared_length
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {length}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)

    def _retry_after(self) -> int:
        ema = self._ema_latency_s if self._ema_latency_s else 1.0
        return max(1, int(math.ceil(ema)))

    def _record_latency(self, elapsed_s: float) -> None:
        self._latencies.append(elapsed_s)

    # -- routing -----------------------------------------------------------
    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        path = path.partition("?")[0]
        if method == "GET" and path == "/healthz":
            self._respond(writer, 200, {"ok": True})
        elif method == "GET" and path == "/readyz":
            if self.ready and not self.draining:
                self._respond(writer, 200, {"ready": True})
            else:
                self._respond(
                    writer, 503,
                    {"ready": False, "draining": self.draining},
                    extra_headers=(("Retry-After", "1"),))
        elif method == "GET" and path == "/stats":
            self._respond(writer, 200, self.stats())
        elif method == "GET" and path.startswith("/artifacts/"):
            self._open_requests += 1
            try:
                await self._handle_artifact(path, headers, writer)
            finally:
                self._open_requests -= 1
        elif method == "POST" and path == "/run":
            self._open_requests += 1
            try:
                await self._handle_run(headers, body, writer)
            finally:
                self._open_requests -= 1
        else:
            self._respond(writer, 404, {"error": f"no route for "
                                                 f"{method} {path}"})
        with contextlib.suppress(Exception):
            await writer.drain()

    def stats(self) -> Dict:
        from .eval.engine import get_engine

        return {
            "ok": True,
            "ready": self.ready,
            "draining": self.draining,
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": self.queue_depth,
            "admitted": self._admitted,
            "inflight": len(self._inflight),
            "open_requests": self._open_requests,
            "counters": dict(self.counters),
            "retry_after_hint_s": self._retry_after(),
            "latency_ms": self._latency_summary(),
            "engine": get_engine().stats(),
        }

    def _latency_summary(self) -> Dict[str, float]:
        from .client import percentile

        ordered = sorted(self._latencies)
        return {"count": len(ordered),
                "p50_ms": round(percentile(ordered, 0.50) * 1e3, 3),
                "p99_ms": round(percentile(ordered, 0.99) * 1e3, 3)}

    # -- POST /run ---------------------------------------------------------
    async def _handle_run(self, headers: Dict[str, str], body: bytes,
                          writer: asyncio.StreamWriter) -> None:
        self.counters["requests"] += 1
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise ValueError("payload must be a JSON object")
        except ValueError as exc:
            self._respond(writer, 400, {"error": f"bad request body: {exc}"})
            return
        name = payload.get("experiment")
        suite = payload.get("suite")
        params = payload.get("params") or {}
        if not isinstance(name, str) or not name:
            self._respond(writer, 400,
                          {"error": "missing experiment name"})
            return
        if not isinstance(params, dict):
            self._respond(writer, 400, {"error": "params must be an object"})
            return
        deadline_s = payload.get("deadline_s", None)
        if deadline_s is None:
            deadline_s = self.deadline_s
        try:
            deadline_s = max(float(deadline_s), 0.0)
        except (TypeError, ValueError):
            self._respond(writer, 400,
                          {"error": f"bad deadline_s {deadline_s!r}"})
            return

        key = json.dumps({"experiment": name, "suite": suite,
                          "params": params}, sort_keys=True)

        # Request-path fault injection, keyed like job faults: fires
        # only on the client's first attempt so retries converge.
        action = self._fault(headers, "on_request", key)
        if action == "drop":
            self.counters["faults"] += 1
            writer.transport.abort()
            return
        if action == "reject":
            self.counters["faults"] += 1
            self._respond(writer, 503, {"error": "injected reject"},
                          extra_headers=(("Retry-After", "1"),))
            return
        if action == "delay":
            self.counters["faults"] += 1
            await asyncio.sleep(_FAULT_DELAY_S)

        if self.draining or not self.ready:
            self._respond(
                writer, 503, {"error": "draining" if self.draining
                              else "not ready"},
                extra_headers=(("Retry-After", str(self._retry_after())),))
            return

        # Check the run spec up front, as the run will, so typos fail
        # fast, before a task is admitted or journaled.
        spec = {"origin": "serve", "experiments": [name], "suite": suite,
                "params": params, "workers": self.config.workers,
                "fail_fast": False}
        try:
            check_run_spec(spec)
        except RegistryError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return

        deduped = False
        task = self._inflight.get(key)
        if task is not None:
            deduped = True
            self.counters["deduped"] += 1
        else:
            if self._admitted >= self.queue_depth:
                self.counters["rejected"] += 1
                self._respond(
                    writer, 429,
                    {"error": f"queue full ({self._admitted} admitted, "
                              f"depth {self.queue_depth})"},
                    extra_headers=(("Retry-After",
                                    str(self._retry_after())),))
                return
            self._admitted += 1
            started = self._loop.time()
            task = asyncio.ensure_future(self._loop.run_in_executor(
                self._executor, self._execute_sync, spec))
            self._inflight[key] = task
            task.add_done_callback(
                lambda t, key=key, started=started:
                self._on_run_done(key, t, started))

        t0 = self._loop.time()
        try:
            if deadline_s > 0:
                result = await asyncio.wait_for(asyncio.shield(task),
                                                timeout=deadline_s)
            else:
                result = await task
        except asyncio.TimeoutError:
            # The client's clock ran out; the sweep keeps running
            # server-side and lands in the cache/journal, so a retry is
            # answered warm.  Degrade exactly like an exhausted job
            # does: schema-valid artifact, errors in metadata.
            self.counters["deadline_expired"] += 1
            self._respond(writer, 200, {
                "artifact": self._deadline_artifact(name, deadline_s, key),
                "run_id": None, "failed": 1, "deduped": deduped,
                "deadline_expired": True})
            return
        except RegistryError as exc:
            # A name the run looked up itself (a jobless experiment's
            # dataset): as permanent as one refused at admission.
            self._respond(writer, 400, {"error": str(exc)})
            return
        except Exception as exc:
            self.counters["failed"] += 1
            self._respond(writer, 500,
                          {"error": f"{type(exc).__name__}: {exc}"})
            return
        self.counters["completed"] += 1
        artifact = dict(result["artifact"])
        metadata = dict(artifact.get("metadata", {}))
        metadata["serve"] = {"deduped": deduped, "run_id": result["run_id"]}
        artifact["metadata"] = metadata
        self._record_latency(self._loop.time() - t0)
        self._respond(writer, 200, {
            "artifact": artifact, "run_id": result["run_id"],
            "failed": result["failed"], "deduped": deduped})

    @staticmethod
    def _fault(headers: Dict[str, str], hook: str,
               token: str) -> Optional[str]:
        """The active fault plan's action for this request, from the
        injector's ``hook`` (``on_request`` or ``on_transfer``) at the
        attempt the client reports in ``X-Repro-Attempt``."""
        from .faults import active_injector

        injector = active_injector()
        if injector is None:
            return None
        try:
            attempt = int(headers.get("x-repro-attempt", "0") or "0")
        except ValueError:
            attempt = 0
        return getattr(injector, hook)(token, attempt=attempt)

    # -- GET /artifacts/* (fleet distribution) -----------------------------
    async def _handle_artifact(self, path: str, headers: Dict[str, str],
                               writer: asyncio.StreamWriter) -> None:
        """Serve one artifact's payload or its manifest.

        The payload route admits the whole entry
        (:func:`~repro.artifacts.admit`) before any byte leaves the
        store, quarantining what fails.  The manifest route hands out
        the stored manifest as is: the fetcher admits it itself before
        it requests the payload."""
        from . import faults
        from .artifacts import ArtifactIntegrityError, artifact_store, valid_id

        self.counters["artifact_requests"] += 1
        parts = [p for p in path.split("/") if p]
        art_id = parts[1] if len(parts) > 1 else ""
        want_manifest = len(parts) == 3 and parts[2] == "manifest"
        if len(parts) > 3 or (len(parts) == 3 and not want_manifest):
            self._respond(writer, 404,
                          {"error": f"no route for GET {path}"})
            return
        if not valid_id(art_id):
            self._respond(writer, 400,
                          {"error": f"invalid artifact id {art_id!r}"})
            return
        if self.draining:
            self._respond(writer, 503, {"error": "draining"},
                          extra_headers=(("Retry-After", "1"),))
            return
        store = artifact_store()
        try:
            if want_manifest:
                manifest_raw = store.manifest_path(art_id).read_bytes()
            else:
                manifest, payload = store.read(art_id)
        except FileNotFoundError:
            self.counters["artifact_misses"] += 1
            self._respond(writer, 404, {"error": f"no artifact {art_id}"})
            return
        except (ArtifactIntegrityError, OSError) as exc:
            # A corrupt entry is never served: read() quarantined it (so
            # the owner rebuilds on next reference); answer a miss.
            self.counters["artifact_misses"] += 1
            self._respond(writer, 404,
                          {"error": f"artifact {art_id} unavailable: {exc}"})
            return

        # Hostile-network fault injection applies *after* the admitted
        # load: the damage models the wire, never the store.
        action = self._fault(headers, "on_transfer", f"net|{art_id}")
        if action == "503":
            self.counters["faults"] += 1
            self.counters["net_faults"] += 1
            self._respond(writer, 503, {"error": "injected 503"},
                          extra_headers=(("Retry-After", "1"),))
            return
        if action == "stall":
            self.counters["faults"] += 1
            self.counters["net_faults"] += 1
            await asyncio.sleep(faults.NET_STALL_S)

        if want_manifest:
            self.counters["artifact_hits"] += 1
            self._respond(writer, 200, manifest_raw)
            return

        etag = manifest["payload_sha256"]
        total = len(payload)
        status, start = 200, 0
        extra = [("ETag", f'"{etag}"'), ("Accept-Ranges", "bytes"),
                 ("X-Repro-Artifact-Id", art_id)]
        range_header = headers.get("range", "")
        if_range = headers.get("if-range", "").strip().strip('"')
        if range_header and (not if_range or if_range == etag):
            start = self._parse_range(range_header, total)
            if start is None:
                self._respond(writer, 416,
                              {"error": f"unsatisfiable range "
                                        f"{range_header!r}"},
                              extra_headers=(("Content-Range",
                                              f"bytes */{total}"),))
                return
            if start > 0:
                status = 206
                extra.append(("Content-Range",
                              f"bytes {start}-{total - 1}/{total}"))
        body = payload[start:]
        declared = len(body)
        if action == "corrupt" and body:
            self.counters["faults"] += 1
            self.counters["net_faults"] += 1
            mid = len(body) // 2
            body = body[:mid] + bytes([body[mid] ^ 0xFF]) + body[mid + 1:]
        elif action == "truncate" and body:
            self.counters["faults"] += 1
            self.counters["net_faults"] += 1
            body = body[:len(body) // 2]
        self.counters["artifact_hits"] += 1
        self.counters["artifact_bytes"] += len(body)
        self._respond(writer, status, body, extra_headers=tuple(extra),
                      declared_length=declared,
                      content_type="application/octet-stream")

    @staticmethod
    def _parse_range(value: str, total: int) -> Optional[int]:
        """Parse ``bytes=<start>-`` (the only form the fetcher sends);
        returns the start offset, 0 for a form we don't support (full
        response is always a valid answer), or None when the start is
        past the end (416)."""
        value = value.strip().lower()
        if not value.startswith("bytes="):
            return 0
        spec = value[len("bytes="):].strip()
        if not spec.endswith("-") or not spec[:-1].isdigit():
            return 0
        start = int(spec[:-1])
        if start >= total > 0 or (total == 0 and start > 0):
            return None
        return start

    def _deadline_artifact(self, name: str, deadline_s: float,
                           key: str) -> Dict:
        from .report import ARTIFACT_SCHEMA

        return {
            "schema": ARTIFACT_SCHEMA,
            "experiment": name,
            "columns": ["row", "value"],
            "rows": [],
            "metadata": {
                "params": {},
                "jobs": {"declared": 0, "unique": 0, "executed": 0,
                         "trained": 0, "failed": 0},
                "elapsed_s": deadline_s,
                "errors": [{
                    "kind": "deadline",
                    "job": key,
                    "error_type": "DeadlineExpired",
                    "error": (f"request deadline of {deadline_s:g}s expired; "
                              f"the sweep continues server-side and lands in "
                              f"the cache, so a retry is answered warm"),
                    "attempts": 1,
                    "elapsed_s": deadline_s,
                }],
            },
        }

    def _on_run_done(self, key: str, task: asyncio.Future,
                     started: float) -> None:
        self._admitted -= 1
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if task.cancelled():
            return
        if task.exception() is None:  # also marks the exception retrieved
            elapsed = self._loop.time() - started
            ema = self._ema_latency_s
            self._ema_latency_s = (elapsed if ema is None
                                   else 0.7 * ema + 0.3 * elapsed)

    # -- execution (single executor thread) --------------------------------
    def _execute_sync(self, spec: Dict, journal=None) -> Dict:
        """Run a request's spec, or a recovered ``journal``'s."""
        from .eval.journal import RunJournal, new_run_id

        if journal is None and self.config.journal:
            journal = RunJournal(new_run_id())
        artifacts = list(run_journaled(spec, journal))
        self.counters["executed_runs"] += 1
        return {"artifact": artifacts[-1].to_dict(),
                "run_id": artifacts[-1].metadata.get("run_id"),
                "failed": sum(artifact.metadata["jobs"]["failed"]
                              for artifact in artifacts)}

    # -- boot: registries, engine, journal re-adoption ----------------------
    def _boot_sync(self) -> None:
        """Everything between listening and ready: the registries' built-in
        entries and the engine load here, so no request pays for them."""
        from .eval.engine import get_engine
        from .registry import load_builtins

        load_builtins()
        get_engine()
        if self.config.recover:
            self._recover_sync()

    def _recover_sync(self) -> None:
        from .eval.journal import RunJournal, list_runs

        for run_id in list_runs():
            try:
                journal = RunJournal.load(run_id)
            except (OSError, ValueError):
                continue
            if (journal.complete or journal.failed
                    or journal.spec.get("origin") != "serve"):
                continue  # finished, or a CLI run (`repro run --resume`)
            self._log(f"recovering unfinished run {run_id}")
            try:
                result = self._execute_sync(journal.spec, journal)
            except Exception as exc:
                self.counters["recovery_failures"] += 1
                self._log(f"recovery of {run_id} failed: "
                          f"{type(exc).__name__}: {exc}")
                continue
            self.counters["recovered_runs"] += 1
            self._log(f"recovered {run_id} "
                      f"(failed jobs: {result['failed']})")


class ServerThread:
    """An in-process server on a daemon thread, for tests and benches.

    >>> with ServerThread(ServeConfig(port=0, quiet=True)) as handle:
    ...     client = ServeClient(handle.url)

    ``stop()`` (or context-manager exit) requests a graceful drain and
    joins the thread; the server's exit code lands in ``exit_code``.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig(port=0, quiet=True)
        self.server = ReproServer(self.config)
        self.exit_code: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.server.port}"

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._error is not None:
                raise RuntimeError("server thread died") from self._error
            if self.server.port is not None and self.server.ready:
                return self
            time.sleep(0.01)
        raise TimeoutError("server did not become ready in time")

    def _run(self) -> None:
        try:
            self.exit_code = asyncio.run(self.server.run())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        self.server.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
        if self._error is not None:
            raise RuntimeError("server thread died") from self._error
        return self.exit_code

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
