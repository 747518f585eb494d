"""Append-only run journals: the checkpoint behind ``repro run --resume``.

A journal is one JSONL file per run under
``<REPRO_CACHE_DIR>/runs/<run-id>/journal.jsonl``, started by
:func:`repro.report.run_journaled` once its run finds a job to execute.
The first record is the run spec (the :data:`repro.report.RUN_SPEC`
fields), and every subsequent record is an event: one line per
completed or failed job (its engine fingerprint, attempts, elapsed
time), one per finished experiment, and how the run ended
(``run-complete``, or ``run-failed`` with the failed-job count or the
exception).  Each line is flushed and fsync'd as it is appended, so a
SIGKILL mid-sweep leaves at worst one torn trailing line — which
:meth:`RunJournal.load` tolerates by ignoring it.

Resume works with the artifact store, not instead of it: every job the
journal marks ``ok`` with an artifact id was published to the engine's
:class:`~repro.artifacts.ArtifactStore` *before* the journal line was
written, so replaying the journaled spec re-executes only jobs the
journal (and store) never saw.  The journal contributes the *recipe* —
``repro run --resume <id>`` needs no re-typed arguments — and the
per-job provenance trail, which is also artifact-store GC's mark set
(:func:`referenced_artifacts` reads every journal on each call).
"""

from __future__ import annotations

import json
import os
import secrets
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Set

__all__ = ["RunJournal", "gc_runs", "new_run_id", "runs_dir", "list_runs",
           "referenced_artifacts"]


def runs_dir(directory: Optional[os.PathLike] = None) -> Path:
    """The run-journal root under the (current) cache directory."""
    from ..perf.cache import default_cache_dir

    base = Path(directory) if directory is not None else default_cache_dir()
    return base / "runs"


def new_run_id() -> str:
    """A fresh, human-sortable run id (timestamp + random suffix)."""
    return "run-" + time.strftime("%Y%m%d-%H%M%S") + "-" + secrets.token_hex(3)


def list_runs(directory: Optional[os.PathLike] = None) -> List[str]:
    root = runs_dir(directory)
    try:
        return sorted(p.name for p in root.iterdir()
                      if (p / "journal.jsonl").is_file())
    except OSError:
        return []


class RunJournal:
    """Append-only JSONL journal for one sweep run."""

    def __init__(self, run_id: str,
                 directory: Optional[os.PathLike] = None) -> None:
        self.run_id = run_id
        self.directory = directory
        self.path = runs_dir(directory) / run_id / "journal.jsonl"
        self._records: List[Dict] = []
        self._write_disabled = False

    # -- creation / loading ------------------------------------------------
    @classmethod
    def create(cls, run_id: Optional[str] = None,
               spec: Optional[Dict] = None,
               directory: Optional[os.PathLike] = None) -> "RunJournal":
        """Start a new journal, writing the run-spec header record."""
        journal = cls(run_id or new_run_id(), directory=directory)
        journal.append({"type": "run", "run_id": journal.run_id,
                        "created": time.time(), "spec": dict(spec or {})})
        return journal

    @classmethod
    def load(cls, run_id: str,
             directory: Optional[os.PathLike] = None) -> "RunJournal":
        """Read an existing journal (raises FileNotFoundError if absent).

        A torn trailing line — the signature of a SIGKILL mid-append —
        is dropped; torn lines elsewhere raise, since they mean the file
        was edited or corrupted, not interrupted.
        """
        journal = cls(run_id, directory=directory)
        lines = journal.path.read_text().splitlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                journal._records.append(json.loads(line))
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    continue
                raise ValueError(
                    f"journal {journal.path} is corrupt at line "
                    f"{lineno + 1}") from None
        return journal

    # -- appending ---------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Append one record durably; journal I/O never fails the sweep."""
        self._records.append(record)
        if self._write_disabled:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self._write_disabled = True
            warnings.warn(
                f"run journal for run {self.run_id} at {self.path} is "
                f"unwritable ({exc}); the sweep continues but this run "
                f"cannot be resumed by id",
                RuntimeWarning, stacklevel=2)

    def record_job(self, fingerprint: str, status: str, attempts: int = 1,
                   elapsed_s: float = 0.0, error: Optional[str] = None,
                   kind: str = "", artifact: Optional[str] = None) -> None:
        record = {"type": "job", "fingerprint": fingerprint,
                  "status": status, "attempts": attempts,
                  "elapsed_s": round(elapsed_s, 6)}
        if error:
            record["error"] = error
        if kind:
            record["kind"] = kind
        if artifact:
            record["artifact"] = artifact
        self.append(record)

    def record_experiment(self, name: str, executed: int,
                          failed: int) -> None:
        self.append({"type": "experiment", "name": name,
                     "executed": executed, "failed": failed})

    def record_event(self, event: str, **fields) -> None:
        self.append({"type": event, "at": time.time(), **fields})

    # -- queries -----------------------------------------------------------
    @property
    def records(self) -> List[Dict]:
        """The journal's records, in append order (a defensive copy)."""
        return list(self._records)

    @property
    def has_run_header(self) -> bool:
        """Whether the run-spec header record survived on disk.

        False means the journal's first line was torn or corrupted —
        the run's recipe is unrecoverable and resuming by id would
        silently run the wrong spec.
        """
        return any(r.get("type") == "run" for r in self._records)

    @property
    def spec(self) -> Dict:
        for record in self._records:
            if record.get("type") == "run":
                return dict(record.get("spec", {}))
        return {}

    def completed_jobs(self) -> Set[str]:
        """Fingerprints of every job journaled as ``ok``."""
        return {r["fingerprint"] for r in self._records
                if r.get("type") == "job" and r.get("status") == "ok"}

    def artifact_ids(self) -> Set[str]:
        """Every artifact id this run's job records reference — the
        journal's contribution to artifact-store GC liveness."""
        return {r["artifact"] for r in self._records
                if r.get("type") == "job" and r.get("artifact")}

    def failed_jobs(self) -> Set[str]:
        return {r["fingerprint"] for r in self._records
                if r.get("type") == "job" and r.get("status") == "failed"}

    @property
    def complete(self) -> bool:
        return any(r.get("type") == "run-complete" for r in self._records)

    @property
    def failed(self) -> bool:
        """A ``run-failed`` run: resumable by hand, not by serve boot."""
        return any(r.get("type") == "run-failed" for r in self._records)

    @property
    def created(self) -> Optional[float]:
        """Creation time from the run header (None when the header is
        torn; :func:`gc_runs` falls back to the file mtime then)."""
        for record in self._records:
            if record.get("type") == "run":
                return record.get("created")
        return None


def _journal_artifact_ids(run_id: str, path: Path,
                          directory: Optional[os.PathLike]) -> Set[str]:
    try:
        return RunJournal.load(run_id, directory=directory).artifact_ids()
    except OSError:
        return set()
    except ValueError as exc:
        # A torn journal must not abort the mark phase: its run's
        # artifacts fall back to pin/keep_days protection.
        warnings.warn(
            f"skipping torn run journal {path} during artifact mark "
            f"({exc}); its artifacts are only protected by pins or "
            f"keep_days until the journal is repaired or pruned",
            RuntimeWarning, stacklevel=4)
        return set()


def referenced_artifacts(
        directory: Optional[os.PathLike] = None) -> Set[str]:
    """Artifact ids referenced by *any* journaled run under the cache
    directory — the mark set for :meth:`repro.artifacts.ArtifactStore.gc`.

    Every call parses every journal.  Torn journals are skipped with a
    warning instead of aborting the mark phase; unreadable journals
    contribute nothing (their runs' artifacts are then only protected by
    pins or ``keep_days``)."""
    live: Set[str] = set()
    root = runs_dir(directory)
    for run_id in list_runs(directory):
        live |= _journal_artifact_ids(run_id, root / run_id / "journal.jsonl",
                                      directory)
    return live


def gc_runs(keep_days: Optional[float] = None, force: bool = False,
            directory: Optional[os.PathLike] = None,
            now: Optional[float] = None) -> Dict[str, List[str]]:
    """Prune journaled runs under ``<cache>/runs/``.

    Completed runs (those with a ``run-complete`` marker) older than
    ``keep_days`` are removed — with ``keep_days=None`` every completed
    run goes.  Resumable runs (incomplete or failed journals: checkpoints
    a ``--resume`` could still finish) and unreadable journals are kept
    unless ``force`` is set.  Returns ``{"removed": [...], "kept":
    [...]}`` with run ids sorted as :func:`list_runs` lists them.
    """
    import shutil

    now = time.time() if now is None else now
    cutoff = None if keep_days is None else now - keep_days * 86400.0
    removed: List[str] = []
    kept: List[str] = []
    for run_id in list_runs(directory):
        try:
            journal = RunJournal.load(run_id, directory=directory)
        except (OSError, ValueError):
            journal = None
        removable = force
        if not removable and journal is not None and journal.complete:
            if cutoff is None:
                removable = True
            else:
                created = journal.created
                if created is None:
                    try:
                        created = journal.path.stat().st_mtime
                    except OSError:
                        created = now
                removable = created < cutoff
        if not removable:
            kept.append(run_id)
            continue
        shutil.rmtree(runs_dir(directory) / run_id, ignore_errors=True)
        removed.append(run_id)
    return {"removed": removed, "kept": kept}
