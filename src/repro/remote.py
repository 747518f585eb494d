"""Verified remote artifact fetch: the fleet-distribution client.

:class:`RemoteStore` lets a worker pull warm artifacts from one
``repro serve`` daemon instead of re-executing jobs or shipping rsync'd
export tarballs.  The engine resolves through it as a read-through
tier — memory → local artifact store → remote → execute — so a fresh
machine pointed at a warm store replays a whole corpus with zero jobs
executed, and a machine that cannot reach the store degrades to local
execution, never a hung sweep.

Nothing downloaded is published until it passes the store's one
admission check, :func:`repro.artifacts.admit`:

1. the manifest is admitted on its own — well-formed, and its id
   **re-derives** from its canonical ``(kind, inputs, producer)`` —
   before a single payload byte is requested;
2. the downloaded payload is admitted with it: its length and sha256
   must match the manifest, so a truncated or bit-flipped body is
   rejected and retried;
3. the payload unpickles — a hash-consistent but unloadable body is
   rejected rather than published as a poison entry;
4. only then does the entry publish, through the local store's
   crash-safe ``tmp/`` staging + atomic-rename protocol
   (:meth:`~repro.artifacts.ArtifactStore.write_entry`) — a SIGKILL
   mid-download leaves droppable tmp garbage, never a partial entry.

That catches damage on the wire, not a hostile server: an id derives
from ``(kind, inputs, producer)``, not from the payload, so a server
that rewrites a payload together with its ``payload_sha256`` is
admitted, and its payload unpickled.  Point ``REPRO_REMOTE_URL`` only
at a trusted daemon.

Transport failures follow the supervision playbook: connection errors,
HTTP 5xx/429 and verification rejects retry with the same jittered
exponential backoff the sweep supervisor uses
(:func:`repro.eval.supervise.backoff_delay`); a transfer cut short
mid-body resumes from the received offset via ``Range``/``If-Range``
(the ETag is the content hash, so a resumed tail can never splice onto
the wrong body).  A fetch that exhausts its budget is recorded as a
structured :class:`TransferFailure` and reads as a miss — the engine
executes the job locally.  Every attempt carries its ordinal in
``X-Repro-Attempt``, so injected ``net_*`` faults
(:mod:`repro.faults`) fire only on first attempts and bounded retries
always converge.

``REPRO_REMOTE_URL`` enables the tier for every engine built without
an explicit ``remote=``.  The retry budget (4), backoff base (0.2 s)
and socket timeout (30 s, the anti-stall bound) are
:class:`RemoteStore` arguments.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TypeVar

from .artifacts import (ArtifactIntegrityError, ArtifactStore, admit,
                        artifact_store, valid_id)
from .eval.supervise import backoff_delay

__all__ = ["RemoteStore", "TransferFailure", "remote_store_from_env",
           "ENV_URL"]

T = TypeVar("T")

ENV_URL = "REPRO_REMOTE_URL"


@dataclass
class TransferFailure:
    """One artifact fetch that exhausted its retry budget."""

    art_id: str
    error_type: str
    error: str
    attempts: int

    def to_dict(self) -> Dict:
        return {"id": self.art_id, "error_type": self.error_type,
                "error": self.error, "attempts": self.attempts}


class _Miss(Exception):
    """The remote answered 404: a permanent miss, not a failure."""


class _Retryable(Exception):
    """A transient transport condition (connection error, 5xx, 429)."""


class RemoteStore:
    """Read-through fetcher against one ``repro serve`` artifact API."""

    def __init__(self, url: Optional[str] = None,
                 store: Optional[ArtifactStore] = None,
                 retries: int = 4, backoff: float = 0.2,
                 timeout: float = 30.0) -> None:
        if url is None:
            url = os.environ.get(ENV_URL, "")
        if url and "//" not in url:
            url = "http://" + url
        parsed = urllib.parse.urlsplit(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.url = f"http://{self.host}:{self.port}"
        self._store = store  # None → the process-wide store at use time
        self.retries = max(int(retries), 0)
        self.backoff = max(float(backoff), 0.0)
        self.timeout = max(float(timeout), 0.001)
        # Distribution accounting, surfaced through engine/serve stats.
        self.fetches = 0
        self.hits = 0          # verified, published, returned
        self.misses = 0        # 404s and exhausted budgets
        self.rejected = 0      # transfers whose bytes failed verification
        self.resumed = 0       # Range resumes of cut-short transfers
        self.retries_used = 0
        self.failures: List[TransferFailure] = []

    def _local(self) -> ArtifactStore:
        return self._store if self._store is not None else artifact_store()

    # -- raw HTTP ----------------------------------------------------------
    def _get(self, path: str, attempt: int,
             extra_headers: Iterable[Tuple[str, str]] = ()):
        """One GET; returns ``(status, body, response)``.  Raises
        ``_Miss`` on 404, ``_Retryable`` on 429/5xx, and lets socket
        errors / IncompleteRead propagate to the caller's policy."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"X-Repro-Attempt": str(attempt),
                       "Connection": "close"}
            headers.update(dict(extra_headers))
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            if response.status == 404:
                raise _Miss(path)
            if response.status == 429 or response.status >= 500:
                raise _Retryable(f"GET {path}: HTTP {response.status}")
            body = response.read()
            return response.status, body, response
        finally:
            conn.close()

    def _pause(self, attempt: int, token: str) -> None:
        delay = backoff_delay(self.backoff, attempt, token=f"remote|{token}")
        if delay > 0:
            time.sleep(delay)

    # -- delta negotiation -------------------------------------------------
    def index(self, have: Optional[Iterable[str]] = None
              ) -> Optional[List[str]]:
        """Ids the remote holds that ``have`` does not, or None when the
        remote cannot be reached within the retry budget."""
        query = ""
        if have:
            query = "?have=" + ",".join(sorted(set(have)))
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_used += 1
                self._pause(attempt - 1, "index")
            try:
                status, body, _ = self._get("/artifacts/index" + query,
                                            attempt)
            except _Miss:
                return None
            except (_Retryable, OSError, http.client.HTTPException):
                continue
            if status != 200:
                return None
            try:
                payload = json.loads(body)
            except ValueError:
                continue
            ids = payload.get("ids") if isinstance(payload, dict) else None
            if isinstance(ids, list):
                return [i for i in ids if valid_id(i)]
        return None

    # -- the verified fetch ------------------------------------------------
    def fetch(self, art_id: str, default: Optional[T] = None) -> Optional[T]:
        """Fetch one artifact, admit it, publish it into the local
        store, and return its value — or ``default`` after a 404 or an
        exhausted retry budget (recorded in :attr:`failures`).

        Rejection happens on the downloaded buffer; publication goes
        through the store's staged atomic-rename protocol only after
        :func:`~repro.artifacts.admit` passes and the value unpickles.
        """
        self.fetches += 1
        if not valid_id(art_id):
            self.misses += 1
            return default
        local = self._local()
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_used += 1
                self._pause(attempt - 1, art_id)
            try:
                manifest_raw = self._fetch_manifest(art_id, attempt)
                manifest = admit(art_id, manifest_raw)  # before the payload
                payload = self._fetch_payload(art_id, manifest, attempt)
                payload = self._client_fault(art_id, payload, attempt)
                admit(art_id, manifest_raw, payload)
                try:
                    value = pickle.loads(payload)
                except Exception as exc:
                    raise ArtifactIntegrityError(
                        f"{art_id}: fetched payload hashed clean but does "
                        f"not unpickle ({exc})") from None
            except _Miss:
                self.misses += 1
                return default
            except ArtifactIntegrityError as exc:
                # Truncated, bit-flipped or tampered bytes: rejected and
                # retried — never published, never returned.
                self.rejected += 1
                last_error = exc
                continue
            except (_Retryable, OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            local.write_entry(art_id, manifest, payload)
            self.hits += 1
            return value
        self.misses += 1
        error = last_error if last_error is not None else _Retryable("no "
                                                                     "attempt")
        self.failures.append(TransferFailure(
            art_id=art_id, error_type=type(error).__name__,
            error=str(error), attempts=self.retries + 1))
        return default

    def _fetch_manifest(self, art_id: str, attempt: int) -> bytes:
        """Download one entry's raw manifest (for :func:`admit`)."""
        status, body, _ = self._get(f"/artifacts/{art_id}/manifest",
                                    attempt)
        if status != 200:
            raise _Retryable(f"manifest for {art_id}: HTTP {status}")
        return body

    def _fetch_payload(self, art_id: str, manifest: Dict,
                       attempt: int) -> bytes:
        """Download the payload, resuming cut-short transfers from the
        received offset via Range (If-Range pins the content hash so a
        resumed tail cannot splice onto different bytes).

        The ``X-Repro-Attempt`` each pass carries is ``attempt`` plus
        the pass index, so injected faults can hit the very first
        payload request of a fetch, while resume passes and retry
        attempts report >0 and are never re-damaged — bounded chaos
        always converges.
        """
        expected = int(manifest["payload_bytes"])
        etag = manifest["payload_sha256"]
        buf = b""
        for pass_no in range(self.retries + 2):
            headers: List[Tuple[str, str]] = []
            if buf:
                self.resumed += 1
                headers = [("Range", f"bytes={len(buf)}-"),
                           ("If-Range", etag)]
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            try:
                request_headers = {"X-Repro-Attempt": str(attempt + pass_no),
                                   "Connection": "close"}
                request_headers.update(dict(headers))
                conn.request("GET", f"/artifacts/{art_id}",
                             headers=request_headers)
                response = conn.getresponse()
                if response.status == 404:
                    raise _Miss(art_id)
                if response.status == 429 or response.status >= 500:
                    raise _Retryable(f"payload {art_id}: HTTP "
                                     f"{response.status}")
                if response.status == 200:
                    buf = b""  # the server reset the range: full body
                elif response.status == 206:
                    content_range = response.getheader("Content-Range", "")
                    if not content_range.startswith(f"bytes {len(buf)}-"):
                        raise _Retryable(
                            f"payload {art_id}: resumed at the wrong "
                            f"offset ({content_range!r})")
                else:
                    raise _Retryable(f"payload {art_id}: HTTP "
                                     f"{response.status}")
                response_etag = (response.getheader("ETag", "") or
                                 "").strip('"')
                if response_etag and response_etag != etag:
                    raise ArtifactIntegrityError(
                        f"{art_id}: transfer ETag {response_etag[:12]}… "
                        f"does not match the manifest hash {etag[:12]}…")
                try:
                    chunk = response.read()
                except http.client.IncompleteRead as exc:
                    # The wire cut the body short of its Content-Length:
                    # keep what arrived and resume from that offset.
                    buf += exc.partial or b""
                    continue
                buf += chunk
            finally:
                conn.close()
            if len(buf) >= expected:
                return buf
            # Short without an exception (cut at a frame boundary):
            # resume from the received offset.
        return buf  # let the verifier pass final judgment

    @staticmethod
    def _client_fault(art_id: str, payload: bytes, attempt: int) -> bytes:
        """Receiver-side hostile-network injection: mangle the received
        buffer under the same ``net_*`` kinds with a ``recv|`` token, so
        chaos plans can damage links the server never sees.  Fires only
        on a fetch's first attempt; verification must catch the damage
        and the retry converges."""
        from . import faults

        injector = faults.active_injector()
        if injector is None or not payload:
            return payload
        action = injector.on_transfer(f"recv|{art_id}", attempt=attempt)
        if action == "corrupt":
            # Flip the first byte — a different offset than the server's
            # mid-body flip, so simultaneous damage on both ends can
            # never cancel out into accidentally-clean bytes.
            return bytes([payload[0] ^ 0xFF]) + payload[1:]
        if action == "truncate":
            return payload[:len(payload) // 2]
        return payload  # "503"/"stall" are transport shapes: server-side

    # -- accounting --------------------------------------------------------
    def stats(self) -> Dict:
        return {"url": self.url, "fetches": self.fetches,
                "hits": self.hits, "misses": self.misses,
                "rejected": self.rejected, "resumed": self.resumed,
                "retries_used": self.retries_used,
                "failures": len(self.failures)}

    def failure_records(self) -> List[Dict]:
        return [failure.to_dict() for failure in self.failures]


def remote_store_from_env(store: Optional[ArtifactStore] = None
                          ) -> Optional[RemoteStore]:
    """A :class:`RemoteStore` when ``REPRO_REMOTE_URL`` names a daemon,
    else None (the engine then resolves memory → artifacts → execute as
    before)."""
    url = os.environ.get(ENV_URL, "").strip()
    if not url:
        return None
    return RemoteStore(url=url, store=store)
