"""Durable content-addressed artifact store: the one persistence layer
under the sweep engine.

Everything a sweep persists is an artifact here: job results (kinds
``sim-report`` and ``train-result``), large partitions (``partition``)
and the engine's derived memos — graph fingerprints and tables
(``memo``).  One handle on the cache directory's store,
:func:`artifact_store`, is shared by the engine (unless it is given its
own ``cache_dir``), the partition cache, ``repro serve`` and the CLI, so
their counters, read-only latch and quarantine warning are one set.
The design follows the two-stage pattern of
SNIPPETS.md's Lambda-Hat (Stage A builds a content-addressed target
once, Stage B consumes it many times):

- **Content-addressed ids.**  ``art_<sha256-prefix>`` derived from a
  canonical JSON manifest of the *inputs* (kind, source digests,
  config/graph fingerprints, producer version) — the same inputs always
  name the same artifact, across processes and machines.

- **Crash-safe writes.**  Every entry is a directory holding
  ``payload.bin`` and ``manifest.json``.  A write goes: payload to a
  private temp directory → fsync → manifest (carrying the payload's
  sha256) → fsync → fsync the temp dir → one atomic :func:`os.rename`
  into ``objects/`` → fsync the parent.  A SIGKILL at any instant
  leaves either a complete, verifiable entry or droppable garbage under
  ``tmp/`` — never a half-written entry under ``objects/``.

- **Lock-free concurrent writers.**  Same-id writers race on the final
  rename; the loser's rename fails (the entry directory already
  exists), it discards its temp directory, and both converge on one
  valid entry.  Asserted under kill injection in
  ``tests/test_artifacts.py``.

- **One admission check.**  :func:`admit` is the only place the trust
  rules live; every read (:meth:`ArtifactStore.get`),
  :meth:`ArtifactStore.verify`, :meth:`ArtifactStore.import_`, the
  remote fetch and ``repro serve``'s payload route call it.  An entry
  that fails is never served and never silently unlinked: it is *moved
  aside* into ``quarantine/`` with a ``reason.json`` record, and the
  next reference rebuilds it (:meth:`ArtifactStore.get_or_build`).

- **Trust boundary.**  An id derives from ``(kind, inputs, producer)``,
  not from the payload, so :func:`admit` catches damage (bit rot, torn
  or truncated bytes) and manifests whose id no longer re-derives.  It
  does not catch a source that rewrites a payload together with its
  ``payload_sha256``, and :meth:`~ArtifactStore.get` and the remote
  fetch then unpickle that payload.  Import archives, and point
  ``REPRO_REMOTE_URL``, only at trusted sources.

- **GC with liveness.**  :meth:`ArtifactStore.gc` marks live ids from
  the run journals under ``<cache>/runs/`` plus explicitly pinned ids,
  then sweeps the rest — dry-run by default, with ``keep_days`` as an
  age guard and ``apply`` to actually delete.  No journal references a
  ``memo``, so memos go like any unreferenced entry unless
  ``keep_days`` protects them (the next run recomputes them).

- **Verified export/import.**  :meth:`ArtifactStore.export` writes a
  tarball (``.tar``, or gzip'd ``.tar.gz``/``.tgz``) indexed by
  ``corpus.json``, every entry admitted on the way out, and refuses any
  other destination; :meth:`ArtifactStore.import_` reads such a
  tarball, admits every entry, checks its hash against the corpus
  index too, and rejects a partial, damaged or inconsistent archive
  whole *before* publishing anything — so a warm corpus from a trusted
  source can ship to a worker fleet.

- **Sharded layout.**  Entries live in per-prefix shard directories
  (``objects/ab/art_ab12…``), keeping directory fan-out bounded as
  corpora pass ~10⁵ entries.  An entry anywhere else under
  ``objects/`` — such as a root-level ``objects/art_…`` directory left
  by an older flat-layout store — is never read;
  :meth:`ArtifactStore.verify` quarantines it as misfiled.  Every id
  embeds the producer's code version, so such leftovers could never be
  served anyway: old stores are caches to rebuild, not migrate.

Layout under ``<REPRO_CACHE_DIR>/artifacts/v1/``::

    objects/ab/art_ab12…/manifest.json    # canonical inputs + payload digest
    objects/ab/art_ab12…/payload.bin      # pickled value
    tmp/<id>.<pid>.<token>/               # in-progress writes (droppable)
    quarantine/<id>.<token>/              # corrupt entries + reason.json
    pins.txt                              # one pinned id per line
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import shutil
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

__all__ = [
    "ARTIFACT_SCHEMA",
    "STORE_VERSION",
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactStore",
    "admit",
    "artifact_store",
    "derive_artifact_id",
    "canonical_inputs",
    "shard_of",
    "valid_id",
]

T = TypeVar("T")

# Bump when the on-disk entry layout changes incompatibly.
STORE_VERSION = 1
ARTIFACT_SCHEMA = "repro.artifact/v1"
CORPUS_SCHEMA = "repro.artifact-corpus/v1"

_ID_PREFIX = "art_"
_ID_HEX = 16
_HEX_DIGITS = frozenset("0123456789abcdef")
_MISS = object()

_JSON_SCALARS = (str, int, float, bool)


class ArtifactError(Exception):
    """Base error for artifact-store operations."""


class ArtifactIntegrityError(ArtifactError):
    """An entry or archive failed its checksum/manifest validation."""


def shard_of(art_id: str) -> str:
    """The two-hex shard directory name an id belongs to."""
    return art_id[len(_ID_PREFIX):len(_ID_PREFIX) + 2]


def _is_shard_name(name: str) -> bool:
    return len(name) == 2 and _HEX_DIGITS.issuperset(name)


# Module-level write-path helpers: the crash-injection tests monkeypatch
# these to SIGKILL a writer at a precise point (pre-fsync, post-payload,
# pre-rename), so keep them as named seams rather than inlined calls.

def _fsync_file(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_bytes(path: Path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        _fsync_file(fh)


def _write_manifest(path: Path, manifest: Dict) -> None:
    _write_bytes(path, json.dumps(manifest, sort_keys=True,
                                  indent=1).encode())


def _publish(src: Path, dst: Path) -> None:
    """Atomically rename a complete temp entry into ``objects/``."""
    os.rename(src, dst)


def canonical_inputs(inputs) -> Dict:
    """Coerce an inputs mapping to a canonical JSON-primitive dict.

    Tuples become lists, numpy scalars become Python scalars, and any
    value that cannot be represented as JSON primitives raises — an id
    derived from a lossy repr would silently collide or drift.
    """
    def coerce(value):
        if value is None or isinstance(value, _JSON_SCALARS):
            return value
        if hasattr(value, "item") and not hasattr(value, "__len__"):
            return value.item()  # numpy scalar
        if isinstance(value, (list, tuple)):
            return [coerce(v) for v in value]
        if isinstance(value, dict):
            return {str(k): coerce(v) for k, v in sorted(value.items())}
        raise ArtifactError(
            f"artifact inputs must be JSON-primitive; got "
            f"{type(value).__name__}: {value!r}")

    if not isinstance(inputs, dict):
        raise ArtifactError(f"artifact inputs must be a dict, got "
                            f"{type(inputs).__name__}")
    return {str(k): coerce(v) for k, v in sorted(inputs.items())}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_artifact_id(kind: str, inputs: Dict,
                       producer: Optional[str] = None) -> str:
    """``art_<sha256-prefix>`` of the canonical (kind, inputs, producer)
    manifest.  ``producer`` defaults to the repo source digest
    (:func:`repro.perf.cache.code_version`), so artifacts — like every
    other cached result — are invalidated by any code change that could
    alter them."""
    if producer is None:
        from .perf.cache import code_version

        producer = code_version()
    digest = hashlib.sha256(_canonical_json(
        {"kind": kind, "inputs": canonical_inputs(inputs),
         "producer": producer}).encode()).hexdigest()
    return _ID_PREFIX + digest[:_ID_HEX]


def valid_id(art_id) -> bool:
    """Whether ``art_id`` is a well-formed ``art_<16 hex>`` id (safe to
    build a store path from)."""
    return (isinstance(art_id, str) and art_id.startswith(_ID_PREFIX)
            and len(art_id) == len(_ID_PREFIX) + _ID_HEX
            and _HEX_DIGITS.issuperset(art_id[len(_ID_PREFIX):]))


def admit(art_id: str, manifest_raw: bytes,
          payload: Optional[bytes] = None) -> Dict:
    """The store's one admission check: the parsed manifest of entry
    ``art_id``, or :class:`ArtifactIntegrityError`.

    The id is well-formed; the manifest is a JSON map with the store
    schema, the same id, non-empty ``kind`` and ``payload_sha256`` and an
    int ``payload_bytes`` >= 0; the id re-derives from the manifest's
    ``(kind, inputs, producer)``; and ``payload``, when given, matches
    that size and sha256.  See the module docs for what this proves and
    what it does not.
    """
    if not valid_id(art_id):
        raise ArtifactIntegrityError(f"{art_id!r}: not a valid artifact id")
    try:
        manifest = json.loads(manifest_raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ArtifactIntegrityError(
            f"{art_id}: manifest is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ArtifactIntegrityError(f"{art_id}: manifest is not a map")
    if manifest.get("schema") != ARTIFACT_SCHEMA:
        raise ArtifactIntegrityError(
            f"{art_id}: manifest schema {manifest.get('schema')!r} != "
            f"{ARTIFACT_SCHEMA!r}")
    if manifest.get("id") != art_id:
        raise ArtifactIntegrityError(
            f"{art_id}: manifest claims id {manifest.get('id')!r}")
    for field in ("kind", "payload_sha256"):
        if not isinstance(manifest.get(field), str) or not manifest[field]:
            raise ArtifactIntegrityError(
                f"{art_id}: manifest field {field!r} missing or empty")
    size = manifest.get("payload_bytes")
    if type(size) is not int or size < 0:
        raise ArtifactIntegrityError(
            f"{art_id}: manifest payload_bytes {size!r} is not a size")
    try:
        expected = derive_artifact_id(manifest["kind"],
                                      manifest.get("inputs", {}),
                                      producer=manifest.get("producer"))
    except ArtifactError as exc:
        raise ArtifactIntegrityError(f"{art_id}: {exc}") from None
    if expected != art_id:
        raise ArtifactIntegrityError(
            f"{art_id}: id does not re-derive from manifest inputs "
            f"(expected {expected})")
    if payload is not None:
        if len(payload) != size:
            raise ArtifactIntegrityError(
                f"{art_id}: payload is {len(payload)} bytes, manifest "
                f"promises {size}")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest["payload_sha256"]:
            raise ArtifactIntegrityError(
                f"{art_id}: payload sha256 {digest[:12]}… does not match "
                f"manifest {manifest['payload_sha256'][:12]}…")
    return manifest


def _new_token() -> str:
    import secrets

    return secrets.token_hex(4)


class ArtifactStore:
    """Content-addressed, crash-safe artifact store (see module docs)."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        from .perf.cache import default_cache_dir

        base = Path(directory) if directory is not None else default_cache_dir()
        self.base = base
        self.root = base / "artifacts" / f"v{STORE_VERSION}"
        self.objects = self.root / "objects"
        self.tmp = self.root / "tmp"
        self.quarantine_root = self.root / "quarantine"
        self.pins_path = self.root / "pins.txt"
        # Robustness accounting, surfaced through stats() and the engine.
        self.puts = 0
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.races_lost = 0
        self.quarantined = 0
        self.write_failures = 0
        self.io_errors = 0
        self._write_disabled = False
        self._warned_quarantine = False
        self._warned_readonly = False

    # -- paths -------------------------------------------------------------
    def entry_dir(self, art_id: str) -> Path:
        """The entry directory of an id: ``objects/<shard>/<id>``."""
        return self.objects / shard_of(art_id) / art_id

    def manifest_path(self, art_id: str) -> Path:
        return self.entry_dir(art_id) / "manifest.json"

    def payload_path(self, art_id: str) -> Path:
        return self.entry_dir(art_id) / "payload.bin"

    # -- writes ------------------------------------------------------------
    def put(self, kind: str, inputs: Dict, value, meta: Optional[Dict] = None,
            producer: Optional[str] = None) -> Optional[str]:
        """Store one artifact; returns its id, or ``None`` if the write
        could not land (read-only store, unpicklable value).

        An id that already exists in ``objects/`` is a success — the
        content address guarantees equivalence, so concurrent and repeat
        writers converge without locks.
        """
        if producer is None:
            from .perf.cache import code_version

            producer = code_version()
        art_id = derive_artifact_id(kind, inputs, producer=producer)
        if self.entry_dir(art_id).is_dir():
            return art_id
        if self._write_disabled:
            return None
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.write_failures += 1
            return None
        manifest = {
            "schema": ARTIFACT_SCHEMA,
            "id": art_id,
            "kind": kind,
            "inputs": canonical_inputs(inputs),
            "producer": producer,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "created": time.time(),
            "meta": dict(meta or {}),
        }
        return art_id if self.write_entry(art_id, manifest, payload) else None

    def write_entry(self, art_id: str, manifest: Dict,
                    payload: bytes) -> bool:
        """Publish one entry through the crash-safe write protocol;
        returns True once a complete entry is visible under
        ``objects/`` (ours or a racer's).  Bytes that arrived from
        elsewhere (import, remote fetch) must pass :func:`admit` first,
        and ``manifest`` is what it returned."""
        from . import faults

        injector = faults.active_injector()
        tmpdir: Optional[Path] = None
        try:
            if injector is not None:
                injector.on_artifact_write_start(art_id)
            self.tmp.mkdir(parents=True, exist_ok=True)
            tmpdir = self.tmp / f"{art_id}.{os.getpid()}.{_new_token()}"
            tmpdir.mkdir()
            _write_bytes(tmpdir / "payload.bin", payload)
            _write_manifest(tmpdir / "manifest.json", manifest)
            _fsync_dir(tmpdir)
            if injector is not None and injector.on_artifact_publishing(art_id):
                # torn_rename fault: the writer "crashed" after making the
                # temp entry durable but before publication — leave the
                # droppable garbage for verify/gc to sweep.
                return False
            target = self.entry_dir(art_id)
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                _publish(tmpdir, target)
            except OSError as exc:
                if exc.errno in (errno.EEXIST, errno.ENOTEMPTY, errno.EISDIR):
                    # Lost the publication race: a complete same-id entry
                    # is already visible.  Converge on it.
                    self.races_lost += 1
                    shutil.rmtree(tmpdir, ignore_errors=True)
                    return True
                raise
            _fsync_dir(target.parent)
            self.puts += 1
            if injector is not None:
                injector.on_artifact_published(target / "payload.bin", art_id)
            return True
        except Exception as exc:
            self.write_failures += 1
            if isinstance(exc, OSError) and exc.errno in (
                    errno.EROFS, errno.EACCES, errno.EPERM):
                self._write_disabled = True
                if not self._warned_readonly:
                    self._warned_readonly = True
                    warnings.warn(
                        f"artifact store at {self.root} is unwritable "
                        f"({exc}) while storing {art_id}; degrading to "
                        f"rebuild-on-demand for the rest of this process",
                        RuntimeWarning, stacklevel=4)
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)
            return False

    # -- reads -------------------------------------------------------------
    def read_manifest(self, art_id: str) -> Dict:
        """One entry's manifest, admitted without its payload."""
        return admit(art_id, self.manifest_path(art_id).read_bytes())

    def read(self, art_id: str) -> Tuple[Dict, bytes]:
        """One entry's admitted ``(manifest, payload)``.

        Raises FileNotFoundError when no such entry exists; an entry
        that fails :func:`admit` is quarantined, then the error
        re-raises."""
        if not valid_id(art_id):
            raise FileNotFoundError(f"no artifact {art_id!r}")
        entry = self.entry_dir(art_id)
        manifest_raw = (entry / "manifest.json").read_bytes()
        payload = (entry / "payload.bin").read_bytes()
        try:
            return admit(art_id, manifest_raw, payload), payload
        except ArtifactIntegrityError as exc:
            self._quarantine(art_id, str(exc))
            raise

    def get(self, art_id: str, default: Optional[T] = None) -> Optional[T]:
        """Load one artifact's value; a corrupt entry is quarantined and
        reads as a miss (rebuilt by the caller), never served."""
        self.gets += 1
        try:
            _manifest, payload = self.read(art_id)
        except (FileNotFoundError, ArtifactIntegrityError):
            self.misses += 1
            return default
        except OSError:
            self.misses += 1
            self.io_errors += 1
            return default
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            # The payload hashed clean but does not unpickle: a producer
            # bug or cross-version pickle, not bit rot — quarantine with
            # the distinct reason so operators can tell them apart.
            self.misses += 1
            self._quarantine(art_id, f"payload does not unpickle: {exc}")
            return default
        self.hits += 1
        return value

    def get_or_build(self, kind: str, inputs: Dict, build: Callable[[], T],
                     meta: Optional[Dict] = None,
                     producer: Optional[str] = None) -> Tuple[T, str]:
        """Resolve (value, id) through the store, building on miss.

        The Stage-A/Stage-B contract: the first caller builds and
        publishes, every later caller — any process, any machine the
        corpus was exported to — loads the same id.
        """
        art_id = derive_artifact_id(kind, inputs, producer=producer)
        value = self.get(art_id, _MISS)
        if value is _MISS:
            value = build()
            self.put(kind, inputs, value, meta=meta, producer=producer)
        return value, art_id

    def __contains__(self, art_id: str) -> bool:
        return self.manifest_path(art_id).is_file()

    # -- quarantine --------------------------------------------------------
    def _quarantine(self, art_id: str, reason: str,
                    path: Optional[Path] = None) -> Optional[Path]:
        """Move a corrupt entry aside with a reason record.

        ``path`` pins the on-disk location when the caller already knows
        it (e.g. an invalidly-named directory :meth:`verify` walked
        over, which id-based resolution cannot find); by default the
        entry resolves through :meth:`entry_dir`.
        """
        self.quarantined += 1
        if not self._warned_quarantine:
            self._warned_quarantine = True
            warnings.warn(
                f"artifact store at {self.root} quarantined corrupt entry "
                f"{art_id} ({reason}); it will be rebuilt on next "
                f"reference. Further quarantines from this store are "
                f"counted in stats() but not re-warned.",
                RuntimeWarning, stacklevel=4)
        dest = self.quarantine_root / f"{art_id}.{_new_token()}"
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.rename(path if path is not None else self.entry_dir(art_id),
                      dest)
            _write_manifest(dest / "reason.json", {
                "id": art_id, "reason": reason, "at": time.time()})
            return dest
        except OSError:
            # Could not move it aside (read-only disk): drop our claim to
            # serve it — it still never reads as a hit because the next
            # get re-detects the corruption.
            return None

    def quarantine_entries(self) -> List[Dict]:
        """Reason records of everything currently quarantined."""
        records: List[Dict] = []
        try:
            entries = sorted(self.quarantine_root.iterdir())
        except OSError:
            return records
        for entry in entries:
            record = {"entry": entry.name, "id": entry.name.split(".")[0]}
            try:
                record.update(json.loads((entry / "reason.json").read_bytes()))
            except (OSError, json.JSONDecodeError, ValueError):
                record["reason"] = "unreadable reason record"
            records.append(record)
        return records

    # -- verification ------------------------------------------------------
    def _iter_entries(self):
        """Yield ``(name, path, shard)`` for every directory under
        ``objects/``; ``shard`` is the shard directory's name, or ``""``
        for a root-level directory (an old flat-layout entry).  Names
        and placement are not validated here — :meth:`verify`
        quarantines the invalid and misfiled ones."""
        try:
            roots = sorted(self.objects.iterdir())
        except OSError:
            return
        for entry in roots:
            if not entry.is_dir():
                continue
            if _is_shard_name(entry.name):
                try:
                    children = sorted(entry.iterdir())
                except OSError:
                    continue
                for child in children:
                    if child.is_dir():
                        yield child.name, child, entry.name
            else:
                yield entry.name, entry, ""

    def verify(self) -> Dict:
        """:func:`admit` every entry; quarantine what fails or is filed
        outside its shard; sweep dead in-progress temp directories.

        Returns ``{"checked", "ok", "quarantined": [{id, reason}],
        "swept_tmp", "quarantine_entries", "shards": {shard: count}}``.
        ``shards`` counts the entries that verified, per shard
        directory.  An entry outside its own shard directory — a
        root-level one included — is quarantined as misfiled.
        """
        checked = ok = 0
        newly_quarantined: List[Dict] = []
        shards: Dict[str, int] = {}
        for name, path, shard in self._iter_entries():
            checked += 1
            try:
                if valid_id(name) and shard != shard_of(name):
                    raise ArtifactIntegrityError(
                        f"{name}: filed under shard {shard!r}, belongs in "
                        f"{shard_of(name)!r}")
                admit(name, (path / "manifest.json").read_bytes(),
                      (path / "payload.bin").read_bytes())
                ok += 1
                shards[shard] = shards.get(shard, 0) + 1
            except (ArtifactIntegrityError, OSError) as exc:
                reason = str(exc) or type(exc).__name__
                self._quarantine(name, reason, path=path)
                newly_quarantined.append({"id": name, "reason": reason})
        swept = self._sweep_tmp()
        return {"checked": checked, "ok": ok,
                "quarantined": newly_quarantined, "swept_tmp": swept,
                "quarantine_entries": len(self.quarantine_entries()),
                "shards": shards}

    def _sweep_tmp(self, max_age_s: float = 3600.0) -> int:
        """Remove in-progress temp dirs whose writer died (pid gone) or
        that are older than ``max_age_s`` — the droppable garbage a
        crash mid-write leaves behind."""
        swept = 0
        try:
            entries = list(self.tmp.iterdir())
        except OSError:
            return 0
        now = time.time()
        for entry in entries:
            parts = entry.name.split(".")
            stale = False
            if len(parts) >= 2 and parts[1].isdigit():
                pid = int(parts[1])
                if pid != os.getpid():
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        stale = True
                    except OSError:
                        pass
            if not stale:
                try:
                    stale = now - entry.stat().st_mtime > max_age_s
                except OSError:
                    continue
            if stale:
                shutil.rmtree(entry, ignore_errors=True)
                swept += 1
        return swept

    # -- listing -----------------------------------------------------------
    def ids(self) -> List[str]:
        """Every entry filed in its own shard directory (misfiled ones
        are left for :meth:`verify` to quarantine)."""
        return [name for name, _path, shard in self._iter_entries()
                if shard == shard_of(name)]

    def list_entries(self) -> List[Dict]:
        """Manifest summaries of every entry (unreadable ones flagged)."""
        records: List[Dict] = []
        for art_id in self.ids():
            try:
                manifest = self.read_manifest(art_id)
                records.append({
                    "id": art_id,
                    "kind": manifest["kind"],
                    "payload_bytes": manifest.get("payload_bytes", 0),
                    "created": manifest.get("created"),
                    "producer": manifest.get("producer", ""),
                    "meta": manifest.get("meta", {}),
                })
            except (OSError, ArtifactIntegrityError) as exc:
                records.append({"id": art_id, "kind": "<unreadable>",
                                "error": str(exc)})
        return records

    # -- pins --------------------------------------------------------------
    def pins(self) -> Set[str]:
        try:
            return {line.strip() for line in
                    self.pins_path.read_text().splitlines()
                    if line.strip()}
        except OSError:
            return set()

    def pin(self, art_id: str) -> None:
        pins = self.pins()
        if art_id in pins:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.pins_path, "a") as fh:
            fh.write(art_id + "\n")
            _fsync_file(fh)

    def unpin(self, art_id: str) -> None:
        pins = self.pins()
        if art_id not in pins:
            return
        pins.discard(art_id)
        tmp = self.pins_path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            fh.write("".join(sorted(f"{p}\n" for p in pins)))
            _fsync_file(fh)
        os.replace(tmp, self.pins_path)

    # -- gc ----------------------------------------------------------------
    def live_ids(self) -> Set[str]:
        """Pinned ids plus every artifact id referenced by a run journal
        under the same cache directory."""
        from .eval.journal import referenced_artifacts

        return self.pins() | referenced_artifacts(directory=self.base)

    def gc(self, keep_days: Optional[float] = None, apply: bool = False,
           now: Optional[float] = None) -> Dict:
        """Sweep unreferenced entries (dry-run unless ``apply``).

        Liveness comes from :meth:`live_ids`; ``keep_days`` additionally
        protects entries newer than that age whether or not anything
        references them (the default ``None`` protects nothing by age).
        Quarantined entries and dead temp dirs are always sweep
        candidates.  Returns the plan/outcome: ``{"removed", "kept_live",
        "kept_young", "quarantine_removed", "swept_tmp", "dry_run"}``.
        """
        now = time.time() if now is None else now
        cutoff = None if keep_days is None else now - keep_days * 86400.0
        live = self.live_ids()
        removed: List[str] = []
        kept_live: List[str] = []
        kept_young: List[str] = []
        for art_id in self.ids():
            if art_id in live:
                kept_live.append(art_id)
                continue
            if cutoff is not None:
                try:
                    created = self.read_manifest(art_id).get("created")
                except (OSError, ArtifactIntegrityError):
                    created = None
                if created is None:
                    try:
                        created = self.entry_dir(art_id).stat().st_mtime
                    except OSError:
                        created = now
                if created >= cutoff:
                    kept_young.append(art_id)
                    continue
            removed.append(art_id)
            if apply:
                shutil.rmtree(self.entry_dir(art_id), ignore_errors=True)
        quarantine_removed: List[str] = []
        try:
            quarantine_entries = sorted(self.quarantine_root.iterdir())
        except OSError:
            quarantine_entries = []
        for entry in quarantine_entries:
            quarantine_removed.append(entry.name)
            if apply:
                shutil.rmtree(entry, ignore_errors=True)
        swept_tmp = self._sweep_tmp() if apply else 0
        return {"removed": removed, "kept_live": kept_live,
                "kept_young": kept_young,
                "quarantine_removed": quarantine_removed,
                "swept_tmp": swept_tmp, "dry_run": not apply}

    # -- export / import ---------------------------------------------------
    def _export_records(self, ids: Optional[Sequence[str]]) -> Tuple[
            List[Dict], List[Dict]]:
        """Admit each entry on its way out; corrupt ones are quarantined
        and excluded (reported), so an export holds only admitted
        entries."""
        selected = list(ids) if ids is not None else self.ids()
        records: List[Dict] = []
        skipped: List[Dict] = []
        for art_id in selected:
            try:
                manifest, _payload = self.read(art_id)
            except FileNotFoundError:
                raise ArtifactError(f"cannot export unknown artifact "
                                    f"{art_id!r}") from None
            except (ArtifactIntegrityError, OSError) as exc:
                skipped.append({"id": art_id, "reason": str(exc)})
                continue
            records.append({
                "id": art_id,
                "kind": manifest["kind"],
                "payload_sha256": manifest["payload_sha256"],
                "payload_bytes": manifest["payload_bytes"],
            })
        return records, skipped

    def export(self, dest: os.PathLike,
               ids: Optional[Sequence[str]] = None) -> Dict:
        """Write a verified, manifest-listed corpus tarball: plain for a
        ``.tar`` ``dest``, gzip'd for ``.tar.gz``/``.tgz``; any other
        destination raises :class:`ArtifactError` before anything is
        read or written."""
        dest = Path(dest)
        if not dest.name.endswith((".tar", ".tar.gz", ".tgz")):
            raise ArtifactError(f"cannot export to {str(dest)!r}: a corpus "
                                f"is a .tar, .tar.gz or .tgz file")
        import io
        import tarfile

        records, skipped = self._export_records(ids)
        corpus = {"schema": CORPUS_SCHEMA, "created": time.time(),
                  "entries": records}
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = dest.with_name(dest.name + f".tmp.{os.getpid()}")
        mode = "w" if dest.name.endswith(".tar") else "w:gz"
        try:
            with tarfile.open(tmp, mode) as tar:
                corpus_bytes = json.dumps(corpus, sort_keys=True,
                                          indent=1).encode()
                info = tarfile.TarInfo("corpus.json")
                info.size = len(corpus_bytes)
                tar.addfile(info, io.BytesIO(corpus_bytes))
                for record in records:
                    art_id = record["id"]
                    tar.add(self.manifest_path(art_id),
                            arcname=f"objects/{art_id}/manifest.json")
                    tar.add(self.payload_path(art_id),
                            arcname=f"objects/{art_id}/payload.bin")
            os.replace(tmp, dest)
        finally:
            if tmp.exists():
                tmp.unlink()
        return {"dest": str(dest), "exported": len(records),
                "skipped": skipped,
                "bytes": sum(r["payload_bytes"] for r in records)}

    def _iter_archive(self, src: Path):
        """Yield ``(record, manifest_bytes, payload_bytes)`` for every
        entry listed by the tarball's corpus index, raising
        :class:`ArtifactIntegrityError` on missing pieces.  Every record
        is checked (a map with a valid id) before any path is built."""
        import tarfile
        from zlib import error as zlib_error

        try:
            with tarfile.open(src, "r:*") as tar:
                blobs: Dict[str, bytes] = {}
                for member in tar.getmembers():
                    if not member.isfile():
                        continue
                    fh = tar.extractfile(member)
                    if fh is not None:
                        blobs[member.name] = fh.read()
        except (tarfile.TarError, EOFError, zlib_error) as exc:
            # A truncated or bit-flipped archive fails at the container
            # layer (gzip/tar), before any per-entry check can run —
            # same verdict: reject it whole.
            raise ArtifactIntegrityError(
                f"{src}: archive is unreadable — truncated or corrupt "
                f"({exc})") from None
        corpus_raw = blobs.get("corpus.json")
        if corpus_raw is None:
            raise ArtifactIntegrityError(
                f"{src}: archive has no corpus.json index")
        corpus = self._parse_corpus(src, corpus_raw)
        for record in corpus["entries"]:
            art_id = record["id"]
            manifest = blobs.get(f"objects/{art_id}/manifest.json")
            payload = blobs.get(f"objects/{art_id}/payload.bin")
            if manifest is None or payload is None:
                raise ArtifactIntegrityError(
                    f"{src}: archive is partial — entry {art_id} listed "
                    f"in corpus.json is missing")
            yield record, manifest, payload

    @staticmethod
    def _parse_corpus(src, raw: bytes) -> Dict:
        try:
            corpus = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ArtifactIntegrityError(
                f"{src}: corpus.json is not valid JSON ({exc})") from None
        if (not isinstance(corpus, dict)
                or corpus.get("schema") != CORPUS_SCHEMA
                or not isinstance(corpus.get("entries"), list)):
            raise ArtifactIntegrityError(
                f"{src}: corpus.json does not match {CORPUS_SCHEMA!r}")
        for record in corpus["entries"]:
            if not isinstance(record, dict) or not valid_id(record.get("id")):
                raise ArtifactIntegrityError(
                    f"{src}: corpus.json lists an invalid entry "
                    f"{record!r:.120}")
        return corpus

    def import_(self, src: os.PathLike) -> Dict:
        """Import a corpus tarball, admitting every entry and rejecting
        the archive whole before publishing anything.

        Per entry: :func:`admit` (well-formed manifest, re-derived id,
        payload size and sha256), and the corpus index must list the
        same payload sha256.  That rejects flipped bytes, truncated or
        partial archives and edited manifests; it does not authenticate
        the source (see the module docs), so import only archives from
        trusted sources.
        """
        src = Path(src)
        staged: List[Tuple[str, Dict, bytes]] = []
        for record, manifest_raw, payload in self._iter_archive(src):
            art_id = record["id"]
            try:
                manifest = admit(art_id, manifest_raw, payload)
            except ArtifactIntegrityError as exc:
                raise ArtifactIntegrityError(f"{src}: {exc}") from None
            if record.get("payload_sha256") != manifest["payload_sha256"]:
                raise ArtifactIntegrityError(
                    f"{src}: {art_id} payload does not match the corpus "
                    f"index (tampered or torn archive)")
            staged.append((art_id, manifest, payload))
        # Everything validated — publish through the normal crash-safe
        # protocol (existing local entries win any race and are skipped).
        imported = skipped = 0
        for art_id, manifest, payload in staged:
            if self.entry_dir(art_id).is_dir():
                skipped += 1
                continue
            if self.write_entry(art_id, manifest, payload):
                imported += 1
        return {"src": str(src), "verified": len(staged),
                "imported": imported, "skipped": skipped}

    # -- maintenance -------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """This handle's counters since it opened (or was cleared); what
        the store holds is :meth:`ids`, :meth:`list_entries`,
        :meth:`quarantine_entries` and :meth:`verify`."""
        return {"puts": self.puts, "gets": self.gets,
                "hits": self.hits, "misses": self.misses,
                "races_lost": self.races_lost,
                "quarantined": self.quarantined,
                "write_failures": self.write_failures,
                "io_errors": self.io_errors}


# One handle per cache directory, so redirecting ``REPRO_CACHE_DIR``
# and back (``temporary_cache_dir`` in tests) finds the handle the
# restored engine holds instead of opening a second one.
_STORES: Dict[Path, ArtifactStore] = {}


def artifact_store() -> ArtifactStore:
    """The process-wide store under the *current* cache directory; an
    engine built without a ``cache_dir`` uses this handle."""
    from .perf.cache import default_cache_dir

    base = default_cache_dir()
    store = _STORES.get(base)
    if store is None:
        store = _STORES[base] = ArtifactStore(directory=base)
    return store
