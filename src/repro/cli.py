"""The unified command-line entry point: ``python -m repro``.

Subcommands:

- ``list [accelerators|datasets|suites|experiments]`` — inspect the
  registries (everything ``run`` accepts by name);
- ``run [experiment ...]`` — execute registered experiments through the
  cached sweep engine and write schema'd artifacts (JSON/CSV/markdown)
  to ``--out``; with no experiment named, runs every spec flagged as a
  smoke experiment.  ``--suite`` re-points suite-parameterized specs at
  a registered workload suite;
- ``bench`` — the hot-kernel, training-epoch, artifact-store and
  fleet-replay benchmark (forwards to :mod:`repro.perf.bench`, which
  remains importable directly; end-to-end workloads are measured by
  ``bench/run.py``);
- ``serve`` — the long-running sweep service (:mod:`repro.serve`):
  keeps the engine's caches hot, accepts experiment requests over
  HTTP with admission control and per-request deadlines, drains
  gracefully on SIGTERM and re-adopts unfinished journaled runs on
  restart;
- ``submit`` — client for a running ``serve`` daemon
  (:mod:`repro.client`): bounded retries with jittered backoff,
  honors the server's ``Retry-After`` backpressure hints;
- ``artifacts list|show|verify|gc|export|import`` — operate the
  content-addressed artifact store (:mod:`repro.artifacts`): inspect
  entries and manifests, admit the whole corpus (quarantining what
  fails or is misfiled outside its ``objects/<xx>/`` shard, and
  reporting per-shard counts), sweep unreferenced entries (dry-run by
  default), and ship a corpus between machines (``export`` →
  ``import`` admits every entry and rejects partial or damaged
  archives whole; import only from trusted sources).

Examples::

    python -m repro list accelerators
    python -m repro run speedup_table --suite quick --out artifacts
    python -m repro run --suite scale-sweep --workers 4
    python -m repro run stall_table --suite scale-sweep-10k
    python -m repro run stall_table --retries 3 --timeout 120
    python -m repro run --resume run-20260808-120000-abc123
    python -m repro list runs --gc --keep-days 7
    python -m repro serve --port 0 --port-file /tmp/repro.port
    python -m repro submit stall_table --suite quick --url 127.0.0.1:8642
    python -m repro bench --quick
    python -m repro artifacts verify
    python -m repro artifacts gc --keep-days 7 --force
    python -m repro artifacts export corpus.tar.gz
    python -m repro artifacts import corpus.tar.gz

Scale-scenario sweeps resolve through the same cached engine as every
other suite: a warm rerun (same ``REPRO_CACHE_DIR``, same code version)
executes zero jobs, and scenarios of 100k+ nodes fan out per job across
the worker pool.

``run`` and ``serve`` hand ``--workers``/``--retries``/``--timeout``
(and ``run``'s ``--fail-fast``) to the engine they run on for the
length of the command, and restore its settings afterwards.

Every ``run`` is journaled by default (``--no-journal`` opts out): the
run's spec and every completed job land in an append-only JSONL file
under the cache directory, so an interrupted sweep — SIGKILL included —
resumes with ``run --resume <run-id>``, re-executing only the jobs that
never finished (completed jobs replay from the artifact store).  SIGINT
and SIGTERM mid-sweep are caught: the journal is marked ``interrupted``
(still resumable), a resume hint is printed, and the exit code is 130.
Jobs that
exhaust ``--retries`` degrade into the artifact's ``errors`` metadata
and exit code 1; ``--fail-fast`` restores raise-on-first-error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .registry import (ACCELERATORS, DATASETS, EXPERIMENTS, SUITES,
                       RegistryError, get_experiment, get_suite)
from .report import run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Registry-driven experiment runner for the MEGA "
                    "reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list registered accelerators/datasets/suites/experiments")
    list_p.add_argument("what", nargs="?", default="all",
                        choices=("all", "accelerators", "datasets", "suites",
                                 "experiments", "runs"))
    list_p.add_argument("--gc", action="store_true",
                        help="with `list runs`: prune completed (fully "
                             "journaled) runs instead of listing")
    list_p.add_argument("--keep-days", type=float, default=None, metavar="N",
                        help="with --gc: keep completed runs newer than N "
                             "days (default: prune every completed run)")
    list_p.add_argument("--force", action="store_true",
                        help="with --gc: also prune resumable and unreadable "
                             "runs (their checkpoints are lost)")

    run_p = sub.add_parser(
        "run", help="run experiments and write schema'd artifacts")
    run_p.add_argument("experiments", nargs="*", metavar="experiment",
                       help="experiment names (default: every smoke-flagged "
                            "experiment)")
    run_p.add_argument("--suite", default=None,
                       help="bind a registered workload suite to each "
                            "experiment's suite parameter")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for cold job batches "
                            "(default: serial)")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="directory to write artifacts into (default: "
                            "print only)")
    run_p.add_argument("--formats", default="json",
                       help="comma-separated artifact formats for --out: "
                            "json,csv,md (default: json)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress the markdown table printout")
    run_p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="per-job retry budget on failure/timeout/worker "
                            "death (default: 0)")
    run_p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job deadline in seconds (default: "
                            "disabled)")
    run_p.add_argument("--fail-fast", action="store_true",
                       help="re-raise the first exhausted job instead of "
                            "degrading it into the artifact's errors "
                            "metadata")
    run_p.add_argument("--run-id", default=None, metavar="ID",
                       help="journal this run under a fixed id (default: "
                            "generated)")
    run_p.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="re-run a journaled run's spec; completed jobs "
                            "replay from the cache, only unfinished jobs "
                            "execute")
    run_p.add_argument("--no-journal", action="store_true",
                       help="do not journal this run (it cannot be resumed "
                            "by id)")

    serve_p = sub.add_parser(
        "serve", help="run the long-lived sweep service (HTTP job queue "
                      "over the cached engine)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="listen port; 0 picks an ephemeral port "
                              "(write it with --port-file)")
    serve_p.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound port number to this file "
                              "once listening")
    serve_p.add_argument("--queue-depth", type=int, default=32, metavar="N",
                         help="admission limit before 429 (default: 32)")
    serve_p.add_argument("--deadline", type=float, default=0.0, metavar="S",
                         help="default per-request deadline in seconds "
                              "(default: none)")
    serve_p.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="S",
                         help="max seconds to wait for in-flight runs on "
                              "SIGTERM (default: 30)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="worker processes for cold job batches")
    serve_p.add_argument("--retries", type=int, default=None, metavar="N",
                         help="per-job retry budget (default: 0)")
    serve_p.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="per-job deadline in seconds (default: "
                              "disabled)")
    serve_p.add_argument("--no-recover", action="store_true",
                         help="skip re-adopting unfinished journaled runs "
                              "on boot")
    serve_p.add_argument("--no-journal", action="store_true",
                         help="do not journal served runs (they cannot be "
                              "recovered after a crash)")
    serve_p.add_argument("--quiet", action="store_true",
                         help="suppress the server's progress lines")

    submit_p = sub.add_parser(
        "submit", help="submit one experiment request to a running serve "
                       "daemon")
    submit_p.add_argument("experiment")
    submit_p.add_argument("--suite", default=None)
    submit_p.add_argument("--url", default=None,
                          help="server base URL (default: REPRO_SERVE_URL "
                               "or http://127.0.0.1:8642)")
    submit_p.add_argument("--deadline", type=float, default=None, metavar="S",
                          help="per-request deadline; on expiry the server "
                               "answers with a degrade-mode artifact")
    submit_p.add_argument("--client-retries", type=int, default=4,
                          metavar="N",
                          help="client retry budget (default: 4)")
    submit_p.add_argument("--out", default=None, metavar="DIR",
                          help="directory to write the artifact into")
    submit_p.add_argument("--formats", default="json",
                          help="comma-separated artifact formats for --out: "
                               "json,csv,md (default: json)")
    submit_p.add_argument("--quiet", action="store_true",
                          help="suppress the markdown table printout")

    sub.add_parser(
        "bench", add_help=False,
        help="hot-kernel, store and fleet benchmarks (see `python -m "
             "repro bench --help`)")

    art_p = sub.add_parser(
        "artifacts", help="operate the content-addressed artifact store")
    art_sub = art_p.add_subparsers(dest="action", required=True)
    art_sub.add_parser("list", help="list every artifact (id, kind, size)")
    show_p = art_sub.add_parser("show", help="print one artifact's manifest")
    show_p.add_argument("id", metavar="ART_ID")
    verify_p = art_sub.add_parser(
        "verify", help="admit every entry (manifest, re-derived id, "
                       "payload hash); quarantine corrupt and misfiled "
                       "entries, report per-shard counts (exit 1 if any "
                       "were quarantined)")
    verify_p.add_argument("--no-sweep-tmp", action="store_true",
                          help="keep dead in-progress temp directories")
    gc_p = art_sub.add_parser(
        "gc", help="sweep entries not referenced by run journals or pins "
                   "(dry-run unless --force)")
    gc_p.add_argument("--keep-days", type=float, default=None, metavar="N",
                      help="also keep unreferenced entries newer than N days")
    gc_p.add_argument("--force", action="store_true",
                      help="actually delete (default: dry-run report)")
    export_p = art_sub.add_parser(
        "export", help="write a verified corpus (tarball for *.tar/"
                       "*.tar.gz/*.tgz destinations, else a directory tree)")
    export_p.add_argument("dest", metavar="DEST")
    export_p.add_argument("--ids", default=None, metavar="ID,ID,...",
                          help="export only these artifact ids (default: "
                               "everything)")
    import_p = art_sub.add_parser(
        "import", help="import a corpus from a trusted source, admitting "
                       "every entry; partial or damaged archives are "
                       "rejected whole")
    import_p.add_argument("src", metavar="SRC")
    return parser


def _cmd_list(what: str, args: Optional[argparse.Namespace] = None) -> int:
    if args is not None and args.gc and what != "runs":
        print("error: --gc applies to `list runs` only", file=sys.stderr)
        return 2
    if what == "runs":
        from .eval.journal import RunJournal, gc_runs, list_runs

        if args is not None and args.gc:
            outcome = gc_runs(keep_days=args.keep_days, force=args.force)
            for run_id in outcome["removed"]:
                print(f"removed {run_id}")
            skipped = len(outcome["kept"])
            print(f"gc: removed {len(outcome['removed'])} run(s), "
                  f"kept {skipped}"
                  + ("" if args.force or not skipped else
                     " (resumable/unreadable runs need --force)"))
            return 0
        runs = list_runs()
        print(f"journaled runs ({len(runs)}):")
        for run_id in runs:
            try:
                journal = RunJournal.load(run_id)
            except (OSError, ValueError):
                print(f"  {run_id}  [unreadable]")
                continue
            state = "complete" if journal.complete else "resumable"
            print(f"  {run_id}  {state}: {len(journal.completed_jobs())} jobs "
                  f"ok, {len(journal.failed_jobs())} failed")
        return 0
    sections = {
        "accelerators": (ACCELERATORS, lambda e: f"[{e.precision}] {e.description}"),
        "datasets": (DATASETS, lambda e: e.description),
        "suites": (SUITES, lambda e: f"{len(e.workloads)} workloads — {e.description}"),
        "experiments": (EXPERIMENTS, lambda e: e.description
                        + (" [smoke]" if e.smoke else "")),
    }
    selected = sections if what == "all" else {what: sections[what]}
    for title, (registry, describe) in selected.items():
        print(f"{title} ({len(registry)}):")
        width = max((len(n) for n in registry.names()), default=0)
        for name, entry in registry.items():
            print(f"  {name:<{width}}  {describe(entry)}")
        print()
    return 0


@contextlib.contextmanager
def _engine_settings(args: argparse.Namespace, **settings):
    """Hand ``--retries``/``--timeout`` (when given) and ``settings`` to
    the default engine for one command, restoring its previous values
    afterwards so an in-process caller's engine is left as found.

    Forked workers get retries and timeout from the engine's
    :class:`~repro.eval.supervise.Supervisor`, not from the environment.
    """
    from .eval.engine import get_engine

    if args.retries is not None:
        settings["retries"] = max(int(args.retries), 0)
    if args.timeout is not None:
        settings["timeout"] = max(float(args.timeout), 0.0)
    engine = get_engine()
    previous = {name: getattr(engine, name) for name in settings}
    for name, value in settings.items():
        setattr(engine, name, value)
    try:
        yield engine
    finally:
        for name, value in previous.items():
            setattr(engine, name, value)


def _resume_args(args: argparse.Namespace, spec: dict) -> None:
    """Rehydrate the CLI namespace from a journaled run spec.

    Explicit flags on the resume invocation win over the journaled
    values, so ``--resume <id> --workers 8`` re-runs the same spec with
    a bigger pool.
    """
    if not args.experiments:
        args.experiments = list(spec.get("experiments", []))
    if args.suite is None:
        args.suite = spec.get("suite")
    if args.workers is None:
        args.workers = spec.get("workers")
    if args.retries is None:
        args.retries = spec.get("retries")
    if args.timeout is None:
        args.timeout = spec.get("timeout")
    args.fail_fast = args.fail_fast or bool(spec.get("fail_fast"))


def _run_one(args: argparse.Namespace, name: str, formats: List[str]) -> int:
    """Run one experiment for ``repro run``; returns its failed jobs."""
    spec = get_experiment(name)
    params = {}
    if args.suite is not None:
        suite = get_suite(args.suite)
        if spec.suite_param is None:
            if args.experiments:
                raise RegistryError(
                    f"experiment {name!r} is not suite-parameterized; "
                    f"drop --suite or pick one of: "
                    f"{', '.join(n for n, s in EXPERIMENTS.items() if s.suite_param)}")
            # Smoke-set run: specs without a suite parameter run on
            # their declared defaults.
        else:
            params = spec.suite_params(suite)
    artifact = run_experiment(name, workers=args.workers,
                              fail_fast=args.fail_fast, **params)
    failed = artifact.metadata["jobs"].get("failed", 0)
    if not args.quiet:
        jobs = artifact.metadata["jobs"]
        print(f"== {artifact.experiment} "
              f"({jobs['unique']} jobs, {jobs['executed']} executed, "
              f"{artifact.metadata['elapsed_s'] * 1e3:.0f} ms) ==")
        print(artifact.to_markdown())
        print()
    if failed:
        for error in artifact.metadata.get("errors", []):
            print(f"FAILED [{error['kind']}] {error['job']}: "
                  f"{error['error_type']}: {error['error']} "
                  f"(after {error['attempts']} attempt(s))",
                  file=sys.stderr)
    if args.out:
        for path in artifact.save(args.out, formats=formats):
            print(f"wrote {path}")
    return failed


def _cmd_run(args: argparse.Namespace) -> int:
    from .eval.journal import RunJournal

    journal = None
    if args.resume is not None:
        try:
            journal = RunJournal.load(args.resume)
        except FileNotFoundError:
            print(f"error: no journal for run {args.resume!r} "
                  f"(see `python -m repro list runs`)", file=sys.stderr)
            return 2
        if not journal.has_run_header:
            # A torn/lost first line means the run-spec is gone; running
            # the default smoke set under this id would silently journal
            # the wrong run.
            print(f"error: journal for run {args.resume!r} has no run-spec "
                  f"header (first line torn or corrupt); cannot resume",
                  file=sys.stderr)
            return 2
        _resume_args(args, journal.spec)
        journal.record_event("resumed")

    names = list(args.experiments)
    if not names:
        names = [name for name, spec in EXPERIMENTS.items() if spec.smoke]
        if not names:
            print("no smoke experiments registered", file=sys.stderr)
            return 2
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    unknown_formats = set(formats) - {"json", "csv", "md"}
    if unknown_formats:
        print(f"error: unknown --formats {sorted(unknown_formats)}; "
              f"expected json, csv, md", file=sys.stderr)
        return 2

    if journal is None and not args.no_journal:
        journal = RunJournal.create(run_id=args.run_id, spec={
            "experiments": list(args.experiments),
            "suite": args.suite,
            "workers": args.workers,
            "retries": args.retries,
            "timeout": args.timeout,
            "fail_fast": bool(args.fail_fast),
        })
    if journal is not None:
        print(f"run id: {journal.run_id} (resume with: python -m repro run "
              f"--resume {journal.run_id})")

    # Resolve every name up front so a typo fails before any sweep runs.
    for name in names:
        get_experiment(name)
    failed_jobs = 0
    interrupted = False
    # Turn SIGTERM into KeyboardInterrupt so both interruption signals
    # take the same graceful path: journal marked, resume hint printed,
    # exit 130.  signal.signal raises off the main thread; then the
    # default (SIGINT-only) behavior stands.
    import signal as signal_module

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal_module.signal(signal_module.SIGTERM,
                                                _interrupt)
    except (ValueError, OSError):
        pass
    try:
        with _engine_settings(args, journal=journal):
            for name in names:
                failed_jobs += _run_one(args, name, formats)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if previous_sigterm is not None:
            try:
                signal_module.signal(signal_module.SIGTERM, previous_sigterm)
            except (ValueError, OSError):
                pass
    if interrupted:
        if journal is not None:
            journal.record_event("interrupted")
            print(f"interrupted: completed jobs are journaled; resume with "
                  f"`python -m repro run --resume {journal.run_id}`",
                  file=sys.stderr)
        else:
            print("interrupted (run was not journaled; it cannot be resumed "
                  "by id)", file=sys.stderr)
        return 130
    if journal is not None and not failed_jobs:
        journal.record_event("run-complete")
    if failed_jobs:
        print(f"error: {failed_jobs} job(s) exhausted their retry budget; "
              f"artifacts carry partial rows (see metadata errors)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    import json

    from .artifacts import ArtifactIntegrityError, artifact_store

    store = artifact_store()
    if args.action == "list":
        entries = store.list_entries()
        stats = store.stats()
        print(f"artifact store at {store.root}: {stats['objects']} "
              f"entr{'y' if stats['objects'] == 1 else 'ies'}, "
              f"{stats['size_bytes']} bytes payload, "
              f"{stats['quarantine_entries']} quarantined")
        for entry in entries:
            if "error" in entry:
                print(f"  {entry['id']}  [unreadable: {entry['error']}]")
            else:
                print(f"  {entry['id']}  {entry['kind']:<14} "
                      f"{entry['payload_bytes']:>10} bytes")
        return 0
    if args.action == "show":
        try:
            manifest = store.read_manifest(args.id)
        except FileNotFoundError:
            print(f"error: no artifact {args.id!r} "
                  f"(see `python -m repro artifacts list`)", file=sys.stderr)
            return 2
        except ArtifactIntegrityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if args.action == "verify":
        outcome = store.verify(sweep_tmp=not args.no_sweep_tmp)
        print(f"verified {outcome['checked']} entr"
              f"{'y' if outcome['checked'] == 1 else 'ies'}: "
              f"{outcome['ok']} ok, {len(outcome['quarantined'])} "
              f"quarantined, {outcome['swept_tmp']} stale temp dir(s) swept")
        shards = outcome.get("shards", {})
        if shards:
            summary = ", ".join(f"{shard}:{count}" for shard, count
                                in sorted(shards.items()))
            print(f"  layout: {summary}")
        for record in outcome["quarantined"]:
            print(f"  quarantined {record['id']}: {record['reason']}",
                  file=sys.stderr)
        return 1 if outcome["quarantined"] else 0
    if args.action == "gc":
        outcome = store.gc(keep_days=args.keep_days, apply=args.force)
        verb = "removed" if args.force else "would remove"
        print(f"gc: {verb} {len(outcome['removed'])} entr"
              f"{'y' if len(outcome['removed']) == 1 else 'ies'} "
              f"(+{len(outcome['quarantine_removed'])} quarantined), kept "
              f"{len(outcome['kept_live'])} live"
              + (f", {len(outcome['kept_young'])} young"
                 if outcome["kept_young"] else "")
              + ("" if args.force else "  [dry-run: pass --force to delete]"))
        for art_id in outcome["removed"]:
            print(f"  {verb} {art_id}")
        return 0
    if args.action == "export":
        from .artifacts import ArtifactError

        ids = ([i.strip() for i in args.ids.split(",") if i.strip()]
               if args.ids else None)
        try:
            outcome = store.export(args.dest, ids=ids)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"exported {outcome['exported']} entr"
              f"{'y' if outcome['exported'] == 1 else 'ies'} "
              f"({outcome['bytes']} bytes payload) to {outcome['dest']}")
        for record in outcome["skipped"]:
            print(f"  skipped corrupt {record['id']}: {record['reason']}",
                  file=sys.stderr)
        return 1 if outcome["skipped"] else 0
    if args.action == "import":
        try:
            outcome = store.import_(args.src)
        except (ArtifactIntegrityError, OSError) as exc:
            print(f"error: import rejected: {exc}", file=sys.stderr)
            return 1
        print(f"imported {outcome['imported']} entr"
              f"{'y' if outcome['imported'] == 1 else 'ies'} "
              f"({outcome['skipped']} already present, "
              f"{outcome['verified']} verified) from {outcome['src']}")
        return 0
    raise AssertionError(f"unhandled artifacts action {args.action!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .serve import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, port_file=args.port_file,
        queue_depth=args.queue_depth, deadline_s=args.deadline,
        drain_grace_s=args.drain_grace, workers=args.workers,
        journal=not args.no_journal, recover=not args.no_recover,
        quiet=args.quiet)
    server = ReproServer(config)
    with _engine_settings(args):
        code = asyncio.run(server.run())
        if server.unfinished:
            # The drain grace expired with runs still executing on the
            # worker thread; a normal interpreter exit would block
            # joining it.  Everything accepted is journaled (resumable),
            # so a hard exit loses nothing.
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code or 1)
    return code


def _cmd_submit(args: argparse.Namespace) -> int:
    import os

    from .client import DEFAULT_URL, ClientError, ServeClient
    from .report import Artifact

    url = args.url or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    unknown_formats = set(formats) - {"json", "csv", "md"}
    if unknown_formats:
        print(f"error: unknown --formats {sorted(unknown_formats)}; "
              f"expected json, csv, md", file=sys.stderr)
        return 2
    client = ServeClient(url, retries=args.client_retries)
    try:
        response = client.submit(args.experiment, suite=args.suite,
                                 deadline_s=args.deadline)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = Artifact.from_dict(response["artifact"])
    if not args.quiet:
        serve_meta = artifact.metadata.get("serve", {})
        note = " [deduped]" if serve_meta.get("deduped") else ""
        print(f"== {artifact.experiment} (run {response.get('run_id')}"
              f"{note}) ==")
        print(artifact.to_markdown())
    for error in artifact.metadata.get("errors", []):
        print(f"FAILED [{error.get('kind')}] {error.get('job')}: "
              f"{error.get('error_type')}: {error.get('error')}",
              file=sys.stderr)
    if args.out:
        for path in artifact.save(args.out, formats=formats):
            print(f"wrote {path}")
    return 1 if response.get("failed") else 0


def _dispatch(argv: List[str]) -> int:
    # `bench` forwards everything after the subcommand to repro.perf.bench.
    if argv and argv[0] == "bench":
        from .perf.bench import main as bench_main

        return bench_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.what, args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "artifacts":
            return _cmd_artifacts(args)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unhandled command {args.command!r}")
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _dispatch(argv)
        # Flush here, so a reader that went away (`repro list | head -1`)
        # surfaces as the BrokenPipeError below, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The recipe from the `signal` module docs: point stdout at
        # devnull so the exit-time flush cannot raise again.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
