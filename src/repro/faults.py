"""Deterministic fault injection for the sweep execution layer.

Production sweeps lose workers, hit hung simulations and read corrupt
cache entries; this module makes every one of those failures a
*reproducible* event so the chaos test suite (``tests/test_chaos.py``)
and the CI chaos job can prove the engine's supervision layer recovers
from them with bit-identical results.

A :class:`FaultPlan` maps fault kinds to firing rates (plus optional
per-process caps), and every firing decision is a pure function of
``(seed, kind, token)`` — the token is the job's repr or the artifact
id — so the same plan over the same batch kills the same
workers every run, in every process, with no shared state.  Faults fire
only on a job's *first* attempt, so bounded retries always converge.

Fault kinds:

- ``kill`` — SIGKILL the executing worker process mid-job (downgraded
  to an :class:`InjectedFault` raise when executing in the supervising
  process itself, which must survive);
- ``hang`` — sleep well past the deadline supervision holds the job to
  (:func:`repro.eval.supervise.job_timeout`, the engine's ``timeout``)
  so the per-job deadline (or the parent watchdog) has to fire;
  downgraded to a raise when the job has no deadline (a hang nobody can
  interrupt would deadlock the suite, not test it);
- ``raise`` — raise :class:`InjectedFault` mid-execution;
- ``cache_readonly`` — make the next artifact-store write raise
  ``PermissionError``, as if the store went read-only mid-sweep;
- ``corrupt_artifact`` — flip a byte in an artifact payload right after
  its atomic publish, so a later read must detect the damage against
  the manifest checksum and quarantine the entry;
- ``torn_rename`` — abandon an artifact write after its temp entry is
  durable but *before* the publishing rename, simulating a crash at the
  narrowest point of the protocol (the caller keeps its in-memory
  value; the store is left with droppable tmp garbage for
  ``verify``/``gc`` to sweep);
- ``serve_drop`` / ``serve_delay`` / ``serve_reject`` — request-path
  faults applied by the :mod:`repro.serve` daemon (connection dropped
  without a response, an injected handling delay, an HTTP 503 reject),
  so the client's retry/backoff behavior is testable end-to-end.  Like
  job faults, they fire only on a request's first attempt (clients send
  their retry ordinal in ``X-Repro-Attempt``), so bounded client
  retries always converge.
- ``net_truncate`` / ``net_corrupt`` / ``net_503`` / ``net_stall`` —
  hostile-network faults on the artifact-distribution path
  (:mod:`repro.serve`'s ``GET /artifacts/…`` and
  :mod:`repro.remote`'s verified fetch): the response body cut short
  mid-transfer (the client must resume via Range), a payload byte
  flipped in flight (the client's manifest re-hash must reject it), an
  HTTP 503, and a stall injected before the response (long enough to
  trip a short client socket timeout).  Wired into *both* ends —
  the server decides per response via :meth:`FaultInjector.on_transfer`
  and the remote fetcher additionally mangles received bytes under the
  same kinds with a client-side token — and, like every request-path
  fault, they fire only on a transfer's first attempt so bounded
  retries converge on the verified bytes.

Activation is either environment-based — ``REPRO_FAULTS="kill=0.2,
corrupt_artifact=1.0:1"`` plus ``REPRO_FAULTS_SEED`` — which forked pool
workers inherit automatically, or scoped with the
:func:`inject_faults` context manager (which sets the same environment
so workers spawned inside the scope see it too).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "InjectedFault",
    "FaultPlan",
    "FaultInjector",
    "active_injector",
    "inject_faults",
    "parse_fault_spec",
]

FAULT_KINDS = ("kill", "hang", "raise", "cache_readonly",
               "corrupt_artifact", "torn_rename",
               "serve_drop", "serve_delay", "serve_reject",
               "net_truncate", "net_corrupt", "net_503", "net_stall")

# How long a net_stall fault holds a response: long enough that a
# deliberately short client timeout (tests use ~50 ms) trips, short
# enough not to drag the suite.
NET_STALL_S = 0.25

ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

_DRAW_DENOM = float(1 << 64)


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind firing rates (and optional per-process fire caps)."""

    rates: Tuple[Tuple[str, float], ...] = ()
    caps: Tuple[Tuple[str, int], ...] = ()
    seed: int = 0

    def rate(self, kind: str) -> float:
        return dict(self.rates).get(kind, 0.0)

    def cap(self, kind: str) -> Optional[int]:
        return dict(self.caps).get(kind)

    def decide(self, kind: str, token: str) -> bool:
        """Pure firing decision: sha1(seed|kind|token) below the rate.

        Ignores caps (which are stateful, see
        :meth:`FaultInjector.should_fire`) — use this to predict which
        tokens a plan targets, e.g. to assert a chaos run actually
        injected something.
        """
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha1(
            f"{self.seed}|{kind}|{token}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / _DRAW_DENOM < rate

    def spec(self) -> str:
        """The ``REPRO_FAULTS`` string form of this plan."""
        parts = []
        caps = dict(self.caps)
        for kind, rate in self.rates:
            cap = caps.get(kind)
            parts.append(f"{kind}={rate:g}" + (f":{cap}" if cap is not None
                                               else ""))
        return ",".join(parts)


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse ``"kind=rate[:cap],..."`` into a :class:`FaultPlan`."""
    rates = []
    caps = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            kind, _, value = part.partition("=")
            kind = kind.strip()
            cap_text = None
            if ":" in value:
                value, _, cap_text = value.partition(":")
            rate = float(value)
        except ValueError:
            raise ValueError(f"bad fault spec entry {part!r}; expected "
                             f"kind=rate[:cap]") from None
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of "
                             f"{FAULT_KINDS}")
        rates.append((kind, rate))
        if cap_text is not None:
            caps.append((kind, int(cap_text)))
    return FaultPlan(rates=tuple(rates), caps=tuple(caps), seed=seed)


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` at the engine's injection points.

    ``fired`` counts fault firings *in this process*; supervised worker
    processes keep their own counters (they fork with a copy), so caps
    bound each process independently.
    """

    plan: FaultPlan
    fired: Dict[str, int] = field(default_factory=dict)

    def should_fire(self, kind: str, token: str) -> bool:
        cap = self.plan.cap(kind)
        if cap is not None and self.fired.get(kind, 0) >= cap:
            return False
        if not self.plan.decide(kind, token):
            return False
        self.fired[kind] = self.fired.get(kind, 0) + 1
        return True

    # -- injection points --------------------------------------------------
    def on_job(self, token: str, attempt: int = 0) -> None:
        """Called by the engine at the top of every job execution.

        Process-killing faults fire only where a supervisor is watching
        (a forked worker), and a hang only where the job has a deadline.
        """
        if attempt != 0:
            return
        from .eval.supervise import in_worker, job_timeout

        if self.should_fire("kill", token):
            if in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"kill fault (downgraded to raise outside a supervised "
                f"worker) for {token}")
        if self.should_fire("hang", token):
            timeout = job_timeout()
            if timeout > 0:
                # Sleep far past the deadline; the per-job SIGALRM or
                # the parent watchdog has to cut this short.
                time.sleep(min(timeout * 3.0, timeout + 30.0))
                raise InjectedFault(
                    f"hang fault outlived the {timeout:g}s timeout "
                    f"unsupervised for {token}")
            raise InjectedFault(
                f"hang fault (downgraded to raise: the job has no "
                f"timeout) for {token}")
        if self.should_fire("raise", token):
            raise InjectedFault(f"raise fault for {token}")

    def on_request(self, token: str, attempt: int = 0) -> Optional[str]:
        """Request-path decision for the serve daemon.

        Returns ``"drop"`` (close the connection without responding),
        ``"reject"`` (respond 503) or ``"delay"`` (sleep briefly before
        handling) — or ``None`` to handle the request normally.  Fires
        only on a request's first attempt so client retries converge;
        at most one action fires per request, in the order above.
        """
        if attempt != 0:
            return None
        for kind, action in (("serve_drop", "drop"),
                             ("serve_reject", "reject"),
                             ("serve_delay", "delay")):
            if self.should_fire(kind, token):
                return action
        return None

    def on_transfer(self, token: str, attempt: int = 0) -> Optional[str]:
        """Hostile-network decision for one artifact transfer.

        Returns ``"truncate"`` (cut the body short mid-transfer),
        ``"corrupt"`` (flip a payload byte in flight), ``"503"``
        (reject with Retry-After) or ``"stall"`` (hold the response for
        :data:`NET_STALL_S`) — or ``None`` for a clean transfer.  Both
        ends consult this: the server with a ``net|<id>`` token on its
        response path, the remote fetcher with a ``recv|<id>`` token on
        the bytes it just received — distinct tokens, so a plan can hit
        either side independently.  Fires only on a transfer's first
        attempt; at most one action per transfer, in the order above.
        """
        if attempt != 0:
            return None
        for kind, action in (("net_truncate", "truncate"),
                             ("net_corrupt", "corrupt"),
                             ("net_503", "503"),
                             ("net_stall", "stall")):
            if self.should_fire(kind, token):
                return action
        return None

    def on_artifact_write_start(self, token: str) -> None:
        """Called by ArtifactStore before staging an entry."""
        if self.should_fire("cache_readonly", token):
            raise PermissionError(
                errno.EACCES, f"injected read-only artifact store for "
                f"{token}")

    def on_artifact_publishing(self, token: str) -> bool:
        """Called between the durable temp entry and the publishing
        rename; True means "the writer crashed here" — the store must
        abandon the publish, leaving only droppable tmp garbage."""
        return self.should_fire("torn_rename", token)

    def on_artifact_published(self, path: os.PathLike, token: str) -> None:
        """Called after an artifact entry's publishing rename landed:
        ``corrupt_artifact`` flips a payload byte, which the manifest
        checksum must catch on read."""
        if not self.should_fire("corrupt_artifact", token):
            return
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.seek(max(size // 2 - 1, 0))
                byte = fh.read(1)
                fh.seek(max(size // 2 - 1, 0))
                fh.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
        except OSError:
            pass


_INJECTOR: Optional[FaultInjector] = None
_INJECTOR_KEY: Optional[Tuple[str, str]] = None


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector for the current ``REPRO_FAULTS``
    environment (None when fault injection is off).

    One instance persists per (spec, seed) so per-process fire caps
    accumulate across calls; changing the environment rebuilds it.
    """
    global _INJECTOR, _INJECTOR_KEY
    spec = os.environ.get(ENV_SPEC, "")
    if not spec:
        _INJECTOR = _INJECTOR_KEY = None
        return None
    seed_text = os.environ.get(ENV_SEED, "0")
    key = (spec, seed_text)
    if _INJECTOR is None or _INJECTOR_KEY != key:
        try:
            seed = int(seed_text)
        except ValueError:
            seed = 0
        _INJECTOR = FaultInjector(parse_fault_spec(spec, seed=seed))
        _INJECTOR_KEY = key
    return _INJECTOR


@contextlib.contextmanager
def inject_faults(spec: Optional[str] = None, seed: int = 0,
                  **kinds: object) -> Iterator[FaultInjector]:
    """Scope fault injection: ``with inject_faults(raise_=0.5, seed=1):``.

    Keyword rates may use a trailing underscore where the kind is a
    Python keyword (``raise_``); values are rates, or ``(rate, cap)``
    tuples for capped kinds.  Sets ``REPRO_FAULTS``/``REPRO_FAULTS_SEED``
    so supervised workers forked inside the scope inherit the plan, and
    restores the previous environment (and injector) on exit.
    """
    if spec is None:
        parts = []
        for name, value in kinds.items():
            kind = name.rstrip("_")
            if isinstance(value, tuple):
                rate, cap = value
                parts.append(f"{kind}={rate:g}:{int(cap)}")
            else:
                parts.append(f"{kind}={float(value):g}")  # type: ignore[arg-type]
        spec = ",".join(parts)
    elif kinds:
        raise TypeError("pass either a spec string or keyword rates, not both")
    parse_fault_spec(spec, seed=seed)  # validate before touching the env
    previous = {name: os.environ.get(name) for name in (ENV_SPEC, ENV_SEED)}
    os.environ[ENV_SPEC] = spec
    os.environ[ENV_SEED] = str(seed)
    try:
        injector = active_injector()
        assert injector is not None
        yield injector
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        active_injector()  # rebuild/clear for the restored environment
