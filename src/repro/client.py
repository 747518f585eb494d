"""HTTP client for the :mod:`repro.serve` daemon.

:class:`ServeClient` wraps ``http.client`` (stdlib only) with the retry
discipline the server's failure modes call for:

- connection errors, HTTP 5xx and 503 rejects retry with the same
  jittered exponential backoff the sweep supervisor uses
  (:func:`repro.eval.supervise.backoff_delay`, deterministic under
  ``REPRO_FAULTS_SEED``);
- a 429 backpressure response honors the server's ``Retry-After`` hint
  (the larger of the hint and the backoff step);
- every attempt carries its retry ordinal in ``X-Repro-Attempt``, so
  server-side injected faults (``serve_drop``/``serve_delay``/
  ``serve_reject``) fire only on attempt 0 and bounded retries always
  converge;
- other 4xx responses are permanent and raise immediately.

A client retries 4 times from a 0.2 s backoff base by default (the
``retries``/``backoff`` arguments; ``repro submit --client-retries``).
:func:`run_load` is the thread-based load generator behind the CI serve
smoke job: N concurrent clients submitting request specs round-robin,
summarized as p50/p99/mean latency, throughput and error rate.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Sequence

from .eval.supervise import backoff_delay

__all__ = ["ClientError", "ServeClient", "run_load", "percentile"]

DEFAULT_URL = "http://127.0.0.1:8642"


class ClientError(RuntimeError):
    """A request that failed permanently (or exhausted its retries)."""

    def __init__(self, message: str, status: Optional[int] = None,
                 body: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class ServeClient:
    """A small, retrying JSON-over-HTTP client for one serve daemon."""

    def __init__(self, url: str = DEFAULT_URL, retries: int = 4,
                 backoff: float = 0.2, timeout: float = 120.0) -> None:
        if "//" not in url:
            url = "http://" + url
        parsed = urllib.parse.urlsplit(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.retries = max(int(retries), 0)
        self.backoff = max(float(backoff), 0.0)
        self.timeout = timeout
        self.attempts_total = 0  # across all requests, for load stats

    # -- one attempt -------------------------------------------------------
    def _once(self, method: str, path: str, payload: Optional[Dict],
              attempt: int):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json",
                       "X-Repro-Attempt": str(attempt),
                       "Connection": "close"}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, data, response.getheader("Retry-After")
        finally:
            conn.close()

    # -- retrying request --------------------------------------------------
    def request_json(self, method: str, path: str,
                     payload: Optional[Dict] = None):
        last: Optional[ClientError] = None
        for attempt in range(self.retries + 1):
            self.attempts_total += 1
            retry_after = None
            try:
                status, data, retry_after = self._once(method, path, payload,
                                                       attempt)
            except (OSError, http.client.HTTPException) as exc:
                last = ClientError(
                    f"{method} {path}: {type(exc).__name__}: {exc}")
                self._pause(attempt, None, path)
                continue
            text = data.decode("utf-8", errors="replace")
            if status == 200:
                try:
                    return json.loads(text or "null")
                except ValueError:
                    last = ClientError(f"{method} {path}: malformed JSON "
                                       f"response", status=status, body=text)
                    self._pause(attempt, retry_after, path)
                    continue
            if status == 429 or status >= 500:
                last = ClientError(f"{method} {path}: HTTP {status}",
                                   status=status, body=text)
                self._pause(attempt, retry_after, path)
                continue
            raise ClientError(f"{method} {path}: HTTP {status}: {text[:300]}",
                              status=status, body=text)
        assert last is not None
        raise last

    def _pause(self, attempt: int, retry_after: Optional[str],
               token: str) -> None:
        if attempt >= self.retries:
            return  # the loop is about to raise; no point sleeping
        delay = backoff_delay(self.backoff, attempt, token=f"client|{token}")
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        if delay > 0:
            time.sleep(delay)

    # -- API ---------------------------------------------------------------
    def submit(self, experiment: str, suite: Optional[str] = None,
               params: Optional[Dict] = None,
               deadline_s: Optional[float] = None) -> Dict:
        """POST one experiment request; returns the response dict
        (``artifact``, ``run_id``, ``failed``, ``deduped``)."""
        payload: Dict = {"experiment": experiment}
        if suite is not None:
            payload["suite"] = suite
        if params:
            payload["params"] = dict(params)
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request_json("POST", "/run", payload)

    def stats(self) -> Dict:
        return self.request_json("GET", "/stats")

    def health(self) -> bool:
        try:
            status, _, _ = self._once("GET", "/healthz", None, 0)
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def ready(self) -> bool:
        try:
            status, _, _ = self._once("GET", "/readyz", None, 0)
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def wait_ready(self, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ready():
                return True
            time.sleep(0.05)
        return False


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_load(url: str, specs: Sequence[Dict], clients: int = 4,
             requests_per_client: int = 4, retries: int = 4,
             backoff: float = 0.2, timeout: float = 120.0,
             deadline_s: Optional[float] = None) -> Dict:
    """Hammer a serve daemon with N concurrent clients.

    Each client thread submits ``requests_per_client`` specs, assigned
    round-robin from ``specs`` (each a ``submit()`` kwargs dict).
    Returns a summary: request/error counts, error rate, p50/p99/mean
    latency in ms, throughput (successful requests per wall second) and
    the total HTTP attempts (retries included).
    """
    results: List[Dict] = []
    attempts: List[int] = []
    lock = threading.Lock()

    def worker(client_index: int) -> None:
        client = ServeClient(url, retries=retries, backoff=backoff,
                             timeout=timeout)
        for request_index in range(requests_per_client):
            spec = specs[(client_index * requests_per_client + request_index)
                         % len(specs)]
            t0 = time.perf_counter()
            ok, error, response = True, None, None
            try:
                response = client.submit(deadline_s=deadline_s, **spec)
            except ClientError as exc:
                ok, error = False, str(exc)
            elapsed = time.perf_counter() - t0
            with lock:
                results.append({
                    "ok": ok, "elapsed_s": elapsed, "error": error,
                    "failed_jobs": int((response or {}).get("failed", 0)),
                    "deduped": bool((response or {}).get("deduped", False)),
                })
        with lock:
            attempts.append(client.attempts_total)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start

    ok_latencies = sorted(r["elapsed_s"] for r in results if r["ok"])
    errors = sum(1 for r in results if not r["ok"])
    total = len(results)
    mean_s = (sum(ok_latencies) / len(ok_latencies)) if ok_latencies else 0.0
    return {
        "clients": clients,
        "requests": total,
        "errors": errors,
        "error_rate": (errors / total) if total else 0.0,
        "failed_jobs": sum(r["failed_jobs"] for r in results),
        "deduped": sum(1 for r in results if r["deduped"]),
        "p50_ms": percentile(ok_latencies, 0.50) * 1e3,
        "p99_ms": percentile(ok_latencies, 0.99) * 1e3,
        "mean_ms": mean_s * 1e3,
        "throughput_rps": (len(ok_latencies) / wall_s) if wall_s > 0 else 0.0,
        "wall_s": wall_s,
        "attempts": sum(attempts),
    }
