"""Structured experiment artifacts: schema'd rows + provenance metadata.

:func:`run_experiment` executes a registered
:class:`~repro.registry.ExperimentSpec` through the shared
:class:`~repro.eval.engine.SweepEngine` and wraps the outcome in an
:class:`Artifact`: the spec reducer's in-memory value, a flat
machine-readable row projection, and metadata recording how the result
was produced (jobs deduplicated/executed, engine cache hits, the source
digest every stored artifact id embeds).  Artifacts render to JSON
(schema-validated, round-trippable), CSV and markdown — the CLI's
``--out`` directory.

:func:`run_journaled` runs a whole run spec (:data:`RUN_SPEC`) through
it; ``repro run`` (fresh or ``--resume``), ``POST /run`` and serve boot
recovery all call it, and every run journal header is its spec.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .registry import (EXPERIMENTS, ExperimentSpec, RegistryError,
                       get_accelerator, get_dataset, get_experiment,
                       get_suite)

__all__ = [
    "ARTIFACT_SCHEMA",
    "RUN_SPEC",
    "Artifact",
    "ArtifactError",
    "check_run_spec",
    "engine_settings",
    "run_experiment",
    "run_journaled",
    "run_suite_experiment",
    "tabulate_value",
    "validate_artifact_dict",
]

# Bump when the serialized artifact layout changes incompatibly.
ARTIFACT_SCHEMA = "repro.report/v1"

_SCALARS = (int, float, str, bool)


class ArtifactError(ValueError):
    """A serialized artifact does not match the schema."""


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return "-".join(str(k) for k in key)
    return str(key)


def _leafify(value):
    """Coerce a leaf cell into a JSON-serializable primitive."""
    if value is None or isinstance(value, _SCALARS):
        # numpy scalars subclass Python floats/ints via __float__ only;
        # convert explicitly so json never sees a numpy type.
        if hasattr(value, "item"):
            return value.item()
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()                      # numpy scalar
    if isinstance(value, Sequence) or hasattr(value, "tolist"):
        seq = value.tolist() if hasattr(value, "tolist") else list(value)
        return [_leafify(v) for v in seq]
    return str(value)


def _as_mapping(node):
    """View mapping-like experiment values as dicts for tabulation.

    ``SimReport`` leaves (full_comparison, ablation_fig19) project to
    their headline metrics instead of an opaque repr.
    """
    if isinstance(node, Mapping):
        return node
    from .sim.accelerator import SimReport

    if isinstance(node, SimReport):
        return {
            "accelerator": node.accelerator,
            "workload": node.workload,
            "total_cycles": node.total_cycles,
            "compute_cycles": node.compute_cycles,
            "stall_fraction": node.stall_fraction,
            "dram_mb": node.dram_mb,
            "energy_pj": node.energy.total_pj,
            "seconds": node.seconds,
            "clock_ghz": node.clock_ghz,
        }
    return None


def tabulate_value(value) -> Dict[str, object]:
    """Project an experiment value onto ``{"columns", "rows"}``.

    Nested mappings flatten into one row per innermost mapping, with the
    outer key path joined into a ``row`` column — generic over every
    registered experiment's return shape (2-level ratio tables, 3-level
    accuracy tables, ``SimReport`` grids, plain lists).
    """
    rows: List[Dict[str, object]] = []

    def walk(prefix: List[str], node) -> None:
        mapping = _as_mapping(node)
        if mapping is None:
            rows.append({"row": "/".join(prefix) or "value",
                         "value": _leafify(node)})
            return
        inner = {k: _as_mapping(v) for k, v in mapping.items()}
        if mapping and all(v is None for v in inner.values()):
            row: Dict[str, object] = {"row": "/".join(prefix) or "value"}
            for k, v in mapping.items():
                row[_key_str(k)] = _leafify(v)
            rows.append(row)
            return
        for k, v in mapping.items():
            walk(prefix + [_key_str(k)], v)

    walk([], value)
    columns: List[str] = []
    for row in rows:
        for col in row:
            if col not in columns:
                columns.append(col)
    return {"columns": columns, "rows": rows}


@dataclass
class Artifact:
    """One experiment outcome: value + schema'd rows + provenance."""

    experiment: str
    columns: List[str]
    rows: List[Dict[str, object]]
    metadata: Dict[str, object] = field(default_factory=dict)
    # The reducer's in-memory value (what library callers read).
    # Deliberately excluded from serialization: it may hold SimReports
    # and numpy arrays; the rows are the machine-readable projection.
    value: object = None

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "experiment": self.experiment,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Artifact":
        validate_artifact_dict(data)
        return cls(experiment=data["experiment"],
                   columns=list(data["columns"]),
                   rows=[dict(r) for r in data["rows"]],
                   metadata=dict(data["metadata"]))

    @classmethod
    def from_json(cls, text: str) -> "Artifact":
        return cls.from_dict(json.loads(text))

    # -- renderers ---------------------------------------------------------
    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns,
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: (json.dumps(v) if isinstance(v, list) else v)
                             for k, v in row.items()})
        return buf.getvalue()

    def to_markdown(self, float_format: str = "{:.4g}") -> str:
        from .eval.reporting import markdown_table

        return markdown_table(self.columns, self.rows,
                              float_format=float_format)

    def save(self, directory, formats: Sequence[str] = ("json",)) -> List[str]:
        """Write ``<directory>/<experiment>.<fmt>`` for each format."""
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: List[str] = []
        renderers = {"json": self.to_json, "csv": self.to_csv,
                     "md": self.to_markdown}
        for fmt in formats:
            if fmt not in renderers:
                raise ValueError(f"unknown artifact format {fmt!r}; "
                                 f"expected one of {sorted(renderers)}")
            path = directory / f"{self.experiment}.{fmt}"
            path.write_text(renderers[fmt]() + "\n")
            written.append(str(path))
        return written


def validate_artifact_dict(data: Mapping) -> None:
    """Schema-check a deserialized artifact dict (raises ArtifactError)."""
    problems: List[str] = []
    if not isinstance(data, Mapping):
        raise ArtifactError(f"artifact must be a mapping, got {type(data).__name__}")
    if data.get("schema") != ARTIFACT_SCHEMA:
        problems.append(f"schema must be {ARTIFACT_SCHEMA!r}, "
                        f"got {data.get('schema')!r}")
    if not isinstance(data.get("experiment"), str) or not data.get("experiment"):
        problems.append("experiment must be a non-empty string")
    columns = data.get("columns")
    if (not isinstance(columns, list) or not columns
            or not all(isinstance(c, str) for c in columns)):
        problems.append("columns must be a non-empty list of strings")
        columns = []
    rows = data.get("rows")
    if not isinstance(rows, list):
        problems.append("rows must be a list")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            problems.append(f"rows[{i}] must be a mapping")
            continue
        unknown = set(row) - set(columns)
        if unknown:
            problems.append(f"rows[{i}] has columns outside the schema: "
                            f"{sorted(unknown)}")
        for key, cell in row.items():
            if not (cell is None or isinstance(cell, (_SCALARS, list))):
                problems.append(
                    f"rows[{i}][{key!r}] is not JSON-primitive "
                    f"({type(cell).__name__})")
    if not isinstance(data.get("metadata"), Mapping):
        problems.append("metadata must be a mapping")
    if problems:
        raise ArtifactError("; ".join(problems))


def _jsonable_params(params: Mapping) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in params.items():
        if value is None or isinstance(value, _SCALARS):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = _leafify(value)
        else:
            out[key] = repr(value)
    return out


def _failure_records(engine, failures) -> List[Dict[str, object]]:
    """The artifact's ``errors`` metadata: one record per exhausted job."""
    records = []
    for failure in failures:
        records.append({
            "job": repr(failure.job),
            "fingerprint": engine._safe_fingerprint(failure.job),
            "error_type": failure.error_type,
            "error": failure.error,
            "attempts": failure.attempts,
            "elapsed_s": round(failure.elapsed_s, 6),
            "kind": failure.kind,
        })
    return records


def run_experiment(name: str, engine=None, fail_fast: bool = True,
                   **params) -> Artifact:
    """Run a registered experiment and return its :class:`Artifact`.

    ``params`` override the spec's declared defaults (a name the spec
    does not declare raises :class:`~repro.registry.RegistryError`
    before any job runs); ``engine`` defaults to the process-wide
    :func:`~repro.eval.engine.get_engine`.  The artifact's ``value`` is
    what the spec's reducer returned.

    ``fail_fast`` controls what a job that exhausts its retry budget
    does.  ``True``, the library default, re-raises the original
    exception (after storing everything that completed).  ``False`` degrades
    gracefully: the sweep finishes, the artifact carries the rows that
    succeeded, and ``metadata["errors"]`` records each failed job
    (fingerprint, exception, attempts, elapsed); if the reducer cannot
    digest a partial result set, ``value`` is ``None`` and the rows are
    a generic tabulation of the successful jobs.  The CLI passes
    ``fail_fast=False`` explicitly, so ``repro run`` degrades unless
    ``--fail-fast`` is given.
    """
    from .eval.engine import get_engine
    from .perf.cache import code_version

    spec: ExperimentSpec = get_experiment(name)
    engine = engine if engine is not None else get_engine()
    merged = spec.params_with_defaults(params)

    jobs = spec.build_jobs(**merged)
    executed_before = engine.executed_jobs
    trained_before = engine.executed_train_jobs
    failed_before = len(engine.failures)
    started = time.perf_counter()
    on_error = "raise" if fail_fast else "degrade"
    reports = (engine.run(list(jobs.values()), on_error=on_error)
               if jobs else {})
    failures = engine.failures[failed_before:]
    keyed = {key: reports[job] for key, job in jobs.items()
             if job in reports}
    if failures:
        try:
            value = spec.reduce(keyed, **merged)
        except Exception:
            # The reducer indexes the full grid; fall back to a generic
            # tabulation of whatever succeeded so the artifact still
            # carries the partial rows.
            value = None
            table = tabulate_value({_key_str(k): v for k, v in keyed.items()})
            if not table["columns"]:
                # Every job failed: keep the artifact schema-valid with
                # an empty-but-well-formed table.
                table = {"columns": ["row", "value"], "rows": []}
        else:
            table = tabulate_value(value)
    else:
        value = spec.reduce(keyed, **merged)
        table = tabulate_value(value)
    elapsed = time.perf_counter() - started

    metadata = {
        "description": spec.description,
        "params": _jsonable_params(merged),
        "jobs": {
            "declared": len(jobs),
            "unique": len(set(jobs.values())),
            "executed": engine.executed_jobs - executed_before,
            "trained": engine.executed_train_jobs - trained_before,
            "failed": len(failures),
        },
        "elapsed_s": elapsed,
        "source_digest": code_version(),
    }
    if failures:
        metadata["errors"] = _failure_records(engine, failures)
    metadata["cache"] = engine.artifacts.stats()
    # Provenance: the stored artifact id of every job this experiment
    # resolved, from whichever tier answered it.
    metadata["artifacts"] = engine.artifact_ids(jobs.values())
    if engine.journal is not None:
        metadata["run_id"] = engine.journal.run_id
        engine.journal.record_experiment(
            spec.name, executed=engine.executed_jobs - executed_before,
            failed=len(failures))
    return Artifact(experiment=spec.name, columns=table["columns"],
                    rows=table["rows"], metadata=metadata, value=value)


def run_suite_experiment(name: str, suite: str, engine=None,
                         fail_fast: bool = True, **params) -> Artifact:
    """Run an experiment with a registered suite bound to its suite
    parameter, as a run spec's ``suite`` binds it."""
    ((_, params),) = check_run_spec(
        {"experiments": [name], "suite": suite, "params": params})
    return run_experiment(name, engine=engine, fail_fast=fail_fast, **params)


# The run-spec fields every journal header holds, with the default an
# omitted one takes.  Serve boot recovery adopts only origin "serve"; no
# experiments means the smoke set; None retries/timeout keep the engine's.
RUN_SPEC: Dict[str, object] = {
    "origin": "cli", "experiments": (), "suite": None, "params": {},
    "workers": None, "retries": None, "timeout": None, "fail_fast": False,
}


def check_run_spec(spec: Mapping) -> List[Tuple[str, Dict[str, object]]]:
    """The ``(experiment, params)`` pairs a run spec runs, suite bound;
    raises :class:`~repro.registry.RegistryError` for a field outside
    :data:`RUN_SPEC`, an unknown experiment or suite, a suite on a
    named experiment that takes none, an undeclared parameter, or a job
    naming an unknown accelerator or dataset."""
    unknown = sorted(set(spec) - set(RUN_SPEC))
    if unknown:
        raise RegistryError(
            f"run spec has no field {', '.join(map(repr, unknown))}; "
            f"fields: {', '.join(RUN_SPEC)}")
    spec = {**RUN_SPEC, **spec}
    named = list(spec["experiments"])
    names = named or [name for name, entry in EXPERIMENTS.items()
                      if entry.smoke]
    if not names:
        raise RegistryError("no smoke experiments registered")
    suite = get_suite(spec["suite"]) if spec["suite"] is not None else None
    plan = []
    for name in names:
        entry = get_experiment(name)
        params = dict(spec["params"])
        # The one suite-binding rule: the suite fills the suite parameter
        # (params win) of each named experiment and smoke one having it.
        if suite is not None and (named or entry.suite_param is not None):
            params = {**entry.suite_params(suite), **params}
        # The registry lookups job_fingerprint makes for every job.
        for job in entry.build_jobs(**entry.params_with_defaults(params)
                                    ).values():
            get_dataset(job.dataset)
            if hasattr(job, "accelerator"):
                get_accelerator(job.accelerator)
        plan.append((name, params))
    return plan


@contextlib.contextmanager
def engine_settings(retries: Optional[int] = None,
                    timeout: Optional[float] = None, **settings):
    """Set ``retries``/``timeout`` (when not None) and ``settings`` on
    the process-wide engine, then restore what it had."""
    from .eval.engine import get_engine

    engine = get_engine()
    if retries is not None:
        settings["retries"] = max(int(retries), 0)
    if timeout is not None:
        settings["timeout"] = max(float(timeout), 0.0)
    previous = {name: getattr(engine, name) for name in settings}
    for name, value in settings.items():
        setattr(engine, name, value)
    try:
        yield engine
    finally:
        for name, value in previous.items():
            setattr(engine, name, value)


def run_journaled(spec: Mapping, journal=None,
                  on_create: Optional[Callable] = None) -> Iterator[Artifact]:
    """Run a run spec, yielding one :class:`Artifact` per experiment.

    :func:`check_run_spec` checks the spec before any job runs, and the
    process-wide engine takes its workers, retries and timeout (None
    keeps the engine's own) and journal for the run.  ``journal`` is
    None (unjournaled), a loaded journal to resume, or a fresh
    ``RunJournal(run_id)`` that ``RunJournal.create`` writes, then
    calling ``on_create(journal)``, when the engine finds its first
    pending job: a run that executes nothing leaves no journal.  The
    journal ends ``run-complete``, ``run-failed`` (the failed-job count
    or the exception; boot recovery skips it) or ``interrupted``.
    """
    from .eval.journal import RunJournal

    spec = {**RUN_SPEC, **spec}
    fresh = journal is not None and not journal.has_run_header
    live = None if fresh else journal

    def open_journal():
        nonlocal live
        live = RunJournal.create(journal.run_id, spec, journal.directory)
        if on_create is not None:
            on_create(live)
        return live

    if live is not None:
        live.record_event("resumed")
    failed = 0
    try:
        plan = check_run_spec(spec)
        settings = {"journal": live,
                    "open_journal": open_journal if fresh else None}
        if spec["workers"] is not None:
            settings["workers"] = max(int(spec["workers"]), 0)
        with engine_settings(spec["retries"], spec["timeout"], **settings):
            for name, params in plan:
                artifact = run_experiment(
                    name, fail_fast=bool(spec["fail_fast"]), **params)
                failed += artifact.metadata["jobs"]["failed"]
                yield artifact
    except (KeyboardInterrupt, GeneratorExit):  # stopped before its end
        if live is not None:
            live.record_event("interrupted")
        raise
    except Exception as exc:
        if live is not None:
            live.record_event("run-failed",
                              error=f"{type(exc).__name__}: {exc}")
        raise
    if live is not None and failed:
        live.record_event("run-failed", failed=failed)
    elif live is not None:
        live.record_event("run-complete")
