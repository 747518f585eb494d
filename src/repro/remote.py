"""Verified remote artifact fetch: the fleet-distribution client.

:class:`RemoteStore` lets a worker pull warm artifacts from one
``repro serve`` daemon instead of re-executing jobs or shipping export
tarballs.  The engine resolves through it as a read-through
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
executes the job locally.  Each request goes out on its own
connection through :meth:`repro.client.ServeClient.connect`, which
stamps the attempt's ordinal in ``X-Repro-Attempt``, so the ``net_*``
faults a daemon injects (:mod:`repro.faults`; the fetcher injects
none) fire only on first attempts and bounded retries always
converge; the retry policy above is this module's own (it ignores
``Retry-After``).

``REPRO_REMOTE_URL`` enables the tier for every engine built without
an explicit ``remote=``.  The retry budget (4), backoff base (0.2 s)
and socket timeout (30 s, the anti-stall bound) are
:class:`RemoteStore` arguments.
"""

from __future__ import annotations

import http.client
import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, TypeVar

from .artifacts import (ArtifactIntegrityError, ArtifactStore, admit,
                        artifact_store, valid_id)
from .client import ServeClient
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
        # Only the client's connection: the retry policy is this class's.
        self._client = ServeClient(url, timeout=max(float(timeout), 0.001))
        self.url = f"http://{self._client.host}:{self._client.port}"
        self._store = store  # None → the process-wide store at use time
        self.retries = max(int(retries), 0)
        self.backoff = max(float(backoff), 0.0)
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

    def _pause(self, attempt: int, token: str) -> None:
        delay = backoff_delay(self.backoff, attempt, token=f"remote|{token}")
        if delay > 0:
            time.sleep(delay)

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

    @staticmethod
    def _check(response, what: str, *ok: int) -> None:
        """Raise ``_Miss`` on 404 and ``_Retryable`` on any status
        outside ``ok`` (429 and 5xx included)."""
        if response.status == 404:
            raise _Miss(what)
        if response.status not in ok:
            raise _Retryable(f"{what}: HTTP {response.status}")

    def _fetch_manifest(self, art_id: str, attempt: int) -> bytes:
        """Download one entry's raw manifest (for :func:`admit`)."""
        with self._client.connect("GET", f"/artifacts/{art_id}/manifest",
                                  attempt=attempt) as response:
            self._check(response, f"manifest for {art_id}", 200)
            return response.read()

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
            headers = ()
            if buf:
                self.resumed += 1
                headers = (("Range", f"bytes={len(buf)}-"),
                           ("If-Range", etag))
            with self._client.connect("GET", f"/artifacts/{art_id}",
                                      attempt=attempt + pass_no,
                                      headers=headers) as response:
                self._check(response, f"payload {art_id}", 200, 206)
                if response.status == 200:
                    buf = b""  # the server reset the range: full body
                else:
                    content_range = response.getheader("Content-Range", "")
                    if not content_range.startswith(f"bytes {len(buf)}-"):
                        raise _Retryable(
                            f"payload {art_id}: resumed at the wrong "
                            f"offset ({content_range!r})")
                response_etag = (response.getheader("ETag", "") or
                                 "").strip('"')
                if response_etag and response_etag != etag:
                    raise ArtifactIntegrityError(
                        f"{art_id}: transfer ETag {response_etag[:12]}… "
                        f"does not match the manifest hash {etag[:12]}…")
                try:
                    buf += response.read()
                except http.client.IncompleteRead as exc:
                    # The wire cut the body short of its Content-Length:
                    # keep what arrived and resume from that offset.
                    buf += exc.partial or b""
                    continue
            if len(buf) >= expected:
                return buf
            # Short without an exception (cut at a frame boundary):
            # resume from the received offset.
        return buf  # let the verifier pass final judgment

    # -- accounting --------------------------------------------------------
    def stats(self) -> Dict:
        return {"url": self.url, "fetches": self.fetches,
                "hits": self.hits, "misses": self.misses,
                "rejected": self.rejected, "resumed": self.resumed,
                "retries_used": self.retries_used,
                "failures": len(self.failures)}


def remote_store_from_env(store: Optional[ArtifactStore] = None
                          ) -> Optional[RemoteStore]:
    """A :class:`RemoteStore` when ``REPRO_REMOTE_URL`` names a daemon,
    else None (the engine then resolves memory → artifacts → execute as
    before)."""
    url = os.environ.get(ENV_URL, "").strip()
    if not url:
        return None
    return RemoteStore(url=url, store=store)
