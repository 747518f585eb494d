"""The unified ``python -m repro`` CLI (in-process via ``cli.main``)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.engine import temporary_cache_dir
from repro.eval.journal import RunJournal
from repro.faults import parse_fault_spec
from repro.registry import get_experiment
from repro.report import validate_artifact_dict

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


class TestList:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("accelerators", "datasets", "suites", "experiments"):
            assert section in out
        assert "mega" in out and "powerlaw-10k" in out
        assert "speedup_table" in out

    def test_list_one_section(self, capsys):
        assert main(["list", "accelerators"]) == 0
        out = capsys.readouterr().out
        assert "mega" in out
        assert "speedup_table" not in out

    def test_closed_stdout_pipe_exits_without_traceback(self):
        # The reader end closes before the child starts, so its first
        # write fails (`repro list | head -1` loses this race sometimes).
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=SRC_ROOT))
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


class TestRun:
    def test_run_speedup_table_quick_suite(self, sweep_engine, capsys,
                                           tmp_path):
        """The ISSUE's smoke line: repro run speedup_table --suite quick."""
        rc = main(["run", "speedup_table", "--suite", "quick",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup_table" in out and "geomean" in out
        data = json.loads((tmp_path / "speedup_table.json").read_text())
        validate_artifact_dict(data)
        # Quick suite = 5 workloads + the geomean row.
        assert len(data["rows"]) == 6
        # Every speedup vs MEGA is > 1 (the paper's headline result).
        for row in data["rows"]:
            for col, value in row.items():
                if col != "row":
                    assert value > 1.0, (row["row"], col)

    def test_run_scale_sweep_scenario(self, sweep_engine, capsys, tmp_path):
        """A synthetic scenario suite runs end-to-end through the CLI."""
        rc = main(["run", "stall_table", "--suite", "scale-sweep",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        data = json.loads((tmp_path / "stall_table.json").read_text())
        validate_artifact_dict(data)
        rows = {row["row"] for row in data["rows"]}
        assert "powerlaw-10k" in rows

    def test_run_smoke_set_without_experiment(self, sweep_engine, capsys,
                                              tmp_path):
        rc = main(["run", "--suite", "smoke", "--quiet",
                   "--out", str(tmp_path), "--formats", "json,md"])
        assert rc == 0
        written = list(tmp_path.glob("*.json"))
        assert len(written) >= 5  # every smoke-flagged experiment
        for path in written:
            validate_artifact_dict(json.loads(path.read_text()))
        assert len(list(tmp_path.glob("*.md"))) == len(written)

    def test_warm_rerun_executes_zero_jobs(self, sweep_engine, capsys):
        assert main(["run", "stall_table", "--quiet"]) == 0
        executed_cold = sweep_engine.executed_jobs
        assert executed_cold > 0
        assert main(["run", "stall_table", "--quiet"]) == 0
        assert sweep_engine.executed_jobs == executed_cold

    def test_bad_formats_fail_before_running(self, sweep_engine, capsys,
                                             tmp_path):
        rc = main(["run", "stall_table", "--out", str(tmp_path),
                   "--formats", "json,cvs"])
        assert rc == 2
        assert "unknown --formats" in capsys.readouterr().err
        assert sweep_engine.executed_jobs == 0  # nothing ran
        assert not list(tmp_path.iterdir())

    def test_unknown_experiment_fails_before_running(self, sweep_engine,
                                                     capsys):
        rc = main(["run", "stall_table", "no_such_experiment"])
        assert rc == 2
        assert sweep_engine.executed_jobs == 0  # typo caught up front

    def test_unknown_experiment_lists_available(self, capsys):
        rc = main(["run", "no_such_experiment"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "speedup_table" in err

    def test_unknown_suite_lists_available(self, capsys):
        rc = main(["run", "speedup_table", "--suite", "no-such-suite"])
        assert rc == 2
        assert "quick" in capsys.readouterr().err

    def test_suite_on_non_suite_experiment_errors(self, capsys):
        rc = main(["run", "ablation_fig19", "--suite", "quick"])
        assert rc == 2
        assert "not suite-parameterized" in capsys.readouterr().err


class TestBenchForwarding:
    def test_bench_help_forwards(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        assert "Benchmark" in capsys.readouterr().out


class TestRobustnessFlags:
    """--workers/--retries/--timeout/--fail-fast/--run-id/--resume/
    --no-journal."""

    def test_run_is_journaled_by_default(self, sweep_engine, capsys):
        rc = main(["run", "stall_table", "--quiet",
                   "--run-id", "cli-test-journaled"])
        assert rc == 0
        assert "resume with" in capsys.readouterr().out
        from repro.eval.journal import RunJournal

        journal = RunJournal.load("cli-test-journaled")
        assert journal.complete
        assert journal.spec["experiments"] == ["stall_table"]
        assert len(journal.completed_jobs()) > 0
        assert sweep_engine.journal is None  # detached after the run

    def test_no_journal_opts_out(self, sweep_engine, capsys):
        rc = main(["run", "stall_table", "--quiet", "--no-journal"])
        assert rc == 0
        assert "resume with" not in capsys.readouterr().out

    def test_resume_executes_nothing_after_complete_run(self, sweep_engine,
                                                        capsys):
        assert main(["run", "stall_table", "--quiet",
                     "--run-id", "cli-test-resume"]) == 0
        executed_cold = sweep_engine.executed_jobs
        assert executed_cold > 0
        rc = main(["run", "--resume", "cli-test-resume", "--quiet"])
        assert rc == 0
        assert sweep_engine.executed_jobs == executed_cold

    def test_resume_unknown_run_fails_cleanly(self, sweep_engine, capsys):
        rc = main(["run", "--resume", "run-does-not-exist"])
        assert rc == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_refuses_headerless_journal(self, sweep_engine, capsys):
        """A journal that lost its run-spec header (torn first line)
        must not resume — it would silently run the default smoke set
        under the old run id."""
        from repro.eval.journal import RunJournal

        assert main(["run", "stall_table", "--quiet",
                     "--run-id", "cli-test-torn"]) == 0
        journal = RunJournal.load("cli-test-torn")
        body = journal.path.read_text().splitlines()[1:]  # drop the header
        journal.path.write_text("\n".join(body) + "\n")
        capsys.readouterr()
        rc = main(["run", "--resume", "cli-test-torn"])
        assert rc == 2
        assert "no run-spec header" in capsys.readouterr().err

    def test_resume_args_explicit_experiments_win(self):
        import argparse

        from repro.cli import _resume_args

        args = argparse.Namespace(experiments=["ablation_fig19"], suite=None,
                                  workers=None, retries=None, timeout=None,
                                  fail_fast=False)
        _resume_args(args, {"experiments": ["stall_table"], "suite": "quick",
                            "workers": 4})
        assert args.experiments == ["ablation_fig19"]  # explicit wins
        assert args.suite == "quick"
        assert args.workers == 4
        args.experiments = []
        _resume_args(args, {"experiments": ["stall_table"]})
        assert args.experiments == ["stall_table"]

    def test_in_process_main_leaves_no_settings_behind(self, sweep_engine,
                                                        tmp_path, capsys):
        """--retries/--timeout reach the engine for one command only:
        nothing lands in os.environ, and neither the default engine nor
        a fresh one inherits them; the journal still records them."""
        from repro.eval.engine import SweepEngine

        rc = main(["run", "stall_table", "--quiet",
                   "--run-id", "cli-test-settings",
                   "--retries", "2", "--timeout", "30"])
        assert rc == 0
        assert [k for k in os.environ if k.startswith("REPRO_JOB_")] == []
        assert (sweep_engine.retries, sweep_engine.timeout) == (0, 0.0)
        fresh = SweepEngine(cache_dir=tmp_path / "fresh")
        assert (fresh.retries, fresh.timeout) == (0, 0.0)
        spec = RunJournal.load("cli-test-settings").spec
        assert (spec["retries"], spec["timeout"]) == (2, 30)

    def test_workers_fan_out_over_processes(self, sweep_engine, capsys):
        rc = main(["run", "stall_table", "--quiet", "--no-journal",
                   "--workers", "2"])
        assert rc == 0
        assert sweep_engine.pool_used
        assert sweep_engine.workers == 0

    def test_timeout_cuts_a_hung_job(self, sweep_engine, capsys):
        from repro.faults import inject_faults

        with inject_faults(hang=(1.0, 1)):
            rc = main(["run", "stall_table", "--quiet", "--no-journal",
                       "--timeout", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED [timeout]" in err and "JobTimeout" in err

    def test_exhausted_jobs_exit_one_with_error_report(self, sweep_engine,
                                                       capsys):
        from repro.faults import inject_faults

        with inject_faults(raise_=1.0):
            rc = main(["run", "stall_table", "--quiet", "--no-journal"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "InjectedFault" in err
        assert "exhausted their retry budget" in err

    def test_retries_recover_injected_faults(self, sweep_engine, capsys):
        from repro.faults import inject_faults

        with inject_faults(raise_=1.0):
            rc = main(["run", "stall_table", "--quiet", "--no-journal",
                       "--retries", "1"])
        assert rc == 0

    def test_fail_fast_raises_out_of_main(self, sweep_engine):
        from repro.faults import InjectedFault, inject_faults

        with inject_faults(raise_=1.0):
            with pytest.raises(InjectedFault):
                main(["run", "stall_table", "--quiet", "--no-journal",
                      "--fail-fast"])

    def test_list_runs(self, sweep_engine, capsys):
        assert main(["run", "stall_table", "--quiet",
                     "--run-id", "cli-test-list"]) == 0
        capsys.readouterr()
        assert main(["list", "runs"]) == 0
        out = capsys.readouterr().out
        assert "cli-test-list" in out and "complete" in out


class TestGcCli:
    """`repro list runs --gc`: prune completed runs from the CLI."""

    @pytest.fixture()
    def gc_cache(self, tmp_path):
        with temporary_cache_dir(tmp_path):
            yield tmp_path

    def test_gc_prunes_completed_keeps_resumable(self, gc_cache, capsys):
        done = RunJournal.create(run_id="gc-done")
        done.record_event("run-complete")
        RunJournal.create(run_id="gc-open")
        assert main(["list", "runs", "--gc"]) == 0
        out = capsys.readouterr().out
        assert "removed gc-done" in out
        assert "removed 1 run(s), kept 1" in out
        assert "need --force" in out
        assert main(["list", "runs"]) == 0
        listing = capsys.readouterr().out
        assert "gc-open" in listing and "gc-done" not in listing

    def test_gc_force_prunes_resumable(self, gc_cache, capsys):
        RunJournal.create(run_id="gc-open")
        assert main(["list", "runs", "--gc", "--force"]) == 0
        out = capsys.readouterr().out
        assert "removed gc-open" in out
        assert main(["list", "runs"]) == 0
        assert "gc-open" not in capsys.readouterr().out

    def test_gc_outside_runs_is_an_error(self, gc_cache, capsys):
        assert main(["list", "accelerators", "--gc"]) == 2
        assert "--gc applies to `list runs` only" in capsys.readouterr().err


class TestArtifactsCli:
    """`repro artifacts list|show|verify|gc|export|import`."""

    @pytest.fixture()
    def art_store(self, tmp_path):
        from repro.artifacts import artifact_store

        with temporary_cache_dir(tmp_path / "cache"):
            yield artifact_store()

    @staticmethod
    def _seed(store, n=2):
        return [store.put("demo", {"n": i}, {"value": i}, producer="cli-t")
                for i in range(n)]

    def test_list_and_show(self, art_store, capsys):
        ids = self._seed(art_store)
        assert main(["artifacts", "list"]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        for art_id in ids:
            assert art_id in out
        assert "demo" in out
        assert main(["artifacts", "show", ids[0]]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["id"] == ids[0]
        assert manifest["inputs"] == {"n": 0}

    def test_show_unknown_id_exits_2(self, art_store, capsys):
        rc = main(["artifacts", "show", "art_" + "0" * 16])
        assert rc == 2
        assert "no artifact" in capsys.readouterr().err

    def test_verify_clean_store_exits_0(self, art_store, capsys):
        self._seed(art_store)
        assert main(["artifacts", "verify"]) == 0
        assert "2 ok, 0 quarantined" in capsys.readouterr().out

    def test_verify_corruption_exits_1_and_quarantines(self, art_store,
                                                       capsys):
        ids = self._seed(art_store)
        payload = art_store.payload_path(ids[0])
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rc = main(["artifacts", "verify"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert ids[0] in captured.err
        # The quarantined entry no longer lists; the clean one does.
        assert main(["artifacts", "list"]) == 0
        out = capsys.readouterr().out
        assert ids[0] not in out and ids[1] in out

    def test_gc_dry_run_then_force(self, art_store, capsys):
        ids = self._seed(art_store)
        art_store.pin(ids[1])
        assert main(["artifacts", "gc"]) == 0
        out = capsys.readouterr().out
        assert f"would remove {ids[0]}" in out and "dry-run" in out
        assert art_store.stats()["objects"] == 2  # nothing deleted yet
        assert main(["artifacts", "gc", "--force"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert art_store.ids() == [ids[1]]

    def test_export_import_round_trip(self, art_store, tmp_path, capsys):
        self._seed(art_store, 3)
        dest = tmp_path / "corpus.tar.gz"
        assert main(["artifacts", "export", str(dest)]) == 0
        assert "exported 3 entries" in capsys.readouterr().out
        # Import into a second, empty cache directory.
        from repro.artifacts import artifact_store

        with temporary_cache_dir(tmp_path / "other"):
            assert main(["artifacts", "import", str(dest)]) == 0
            assert "imported 3 entries" in capsys.readouterr().out
            assert artifact_store().verify()["ok"] == 3

    def test_export_unknown_id_exits_2(self, art_store, tmp_path, capsys):
        rc = main(["artifacts", "export", str(tmp_path / "c.tar"),
                   "--ids", "art_" + "f" * 16])
        assert rc == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_import_rejects_tampered_archive(self, art_store, tmp_path,
                                             capsys):
        ids = self._seed(art_store, 1)
        tree = tmp_path / "tree"
        assert main(["artifacts", "export", str(tree)]) == 0
        victim = tree / "objects" / ids[0] / "payload.bin"
        victim.write_bytes(victim.read_bytes()[:-1])  # truncate
        capsys.readouterr()
        from repro.artifacts import artifact_store

        with temporary_cache_dir(tmp_path / "other"):
            rc = main(["artifacts", "import", str(tree)])
            assert rc == 1
            assert "import rejected" in capsys.readouterr().err
            assert artifact_store().ids() == []  # nothing published

    @pytest.mark.parametrize("entry", [["not", "a", "map"], {"kind": "demo"},
                                       {"id": "../../../etc"}],
                             ids=["not-a-map", "no-id", "path-traversal-id"])
    def test_import_rejects_malformed_corpus_index(self, art_store, tmp_path,
                                                   capsys, entry):
        """A corpus index entry that is not a map with a valid id is
        rejected before any path is built from it."""
        self._seed(art_store, 1)
        tree = tmp_path / "tree"
        assert main(["artifacts", "export", str(tree)]) == 0
        corpus = json.loads((tree / "corpus.json").read_text())
        corpus["entries"].append(entry)
        (tree / "corpus.json").write_text(json.dumps(corpus))
        capsys.readouterr()
        from repro.artifacts import artifact_store

        with temporary_cache_dir(tmp_path / "other"):
            rc = main(["artifacts", "import", str(tree)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "import rejected" in err and "invalid entry" in err
            assert artifact_store().ids() == []  # nothing published


class TestArtifactsCrossProcess:
    def test_export_import_verify_round_trip(self, tmp_path):
        """``repro artifacts`` across processes: a store verifies clean,
        exports, imports into a fresh cache that verifies clean, and
        ``verify`` exits 1 after one flipped payload byte."""
        from repro.artifacts import ArtifactStore

        def repro(cache, *argv):
            env = dict(os.environ, PYTHONPATH=SRC_ROOT,
                       REPRO_CACHE_DIR=str(cache))
            return subprocess.run([sys.executable, "-m", "repro",
                                   "artifacts", *argv], env=env,
                                  cwd=str(tmp_path), capture_output=True,
                                  text=True, timeout=120)

        source, fresh = tmp_path / "a", tmp_path / "b"
        ids = [ArtifactStore(directory=source).put(
            "demo", {"n": i}, {"value": i}, producer="cli-x")
            for i in range(2)]
        corpus = tmp_path / "corpus.tar.gz"
        assert repro(source, "verify").returncode == 0
        done = repro(source, "export", str(corpus))
        assert done.returncode == 0 and "exported 2 entries" in done.stdout
        done = repro(fresh, "import", str(corpus))
        assert done.returncode == 0 and "imported 2 entries" in done.stdout
        done = repro(fresh, "verify")
        assert done.returncode == 0 and "2 ok, 0 quarantined" in done.stdout

        payload = ArtifactStore(directory=fresh).payload_path(ids[0])
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        done = repro(fresh, "verify")
        assert done.returncode == 1
        assert "1 ok, 1 quarantined" in done.stdout and ids[0] in done.stderr


def _first_hang_index():
    """Find a chaos seed whose first ``hang`` firing lands mid-sweep.

    Returns ``(seed, index, total)`` over stall_table's default job
    list so the interrupt tests know exactly how many jobs complete
    before the process wedges — deterministic, no sleeps-and-hope.
    """
    spec = get_experiment("stall_table")
    jobs = list(spec.build_jobs(**dict(spec.defaults)).values())
    for seed in range(64):
        plan = parse_fault_spec("hang=0.5:1", seed=seed)
        fired = [i for i, job in enumerate(jobs)
                 if plan.decide("hang", repr(job))]
        if fired and 0 < fired[0] < len(jobs):
            return seed, fired[0], len(jobs)
    raise AssertionError("no seed in 0..63 hangs mid-sweep")


class TestInterruptSignals:
    """SIGINT/SIGTERM mid-sweep: journal stays resumable, exit 130."""

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                             ids=["sigint", "sigterm"])
    def test_interrupt_mid_sweep_then_resume(self, tmp_path, sig):
        seed, index, total = _first_hang_index()
        cache = tmp_path / "cache"
        journal_path = cache / "runs" / "cli-interrupt" / "journal.jsonl"
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC_ROOT
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_FAULTS"] = "hang=0.5:1"
        env["REPRO_FAULTS_SEED"] = str(seed)
        argv = [sys.executable, "-m", "repro", "run", "stall_table",
                "--quiet", "--run-id", "cli-interrupt", "--timeout", "600"]
        proc = subprocess.Popen(argv, env=env, cwd=str(tmp_path),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            # The run wedges (sleeping far past the interrupt) once
            # `index` jobs are journaled; wait for that point.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                done = (journal_path.read_text().count('"status": "ok"')
                        if journal_path.exists() else 0)
                if done >= index:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("sweep never reached the hang job")
            time.sleep(0.2)  # let the hang job enter its sleep
            proc.send_signal(sig)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (stdout, stderr)
        assert "resume with" in stderr and "cli-interrupt" in stderr
        journal = RunJournal.load("cli-interrupt", directory=cache)
        assert not journal.complete
        assert any(r.get("type") == "interrupted" for r in journal.records)
        assert len(journal.completed_jobs()) == index

        resume_env = env.copy()
        for var in ("REPRO_FAULTS", "REPRO_FAULTS_SEED"):
            resume_env.pop(var, None)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--resume", "cli-interrupt", "--quiet"],
            env=resume_env, cwd=str(tmp_path), capture_output=True,
            text=True, timeout=300)
        assert done.returncode == 0, (done.stdout, done.stderr)
        journal = RunJournal.load("cli-interrupt", directory=cache)
        assert journal.complete
        # Exactly the remaining jobs executed on resume: every job
        # fingerprint journaled once, none twice (cache hits skip the
        # journal, so a duplicate would mean re-execution).
        ok = [r["fingerprint"] for r in journal.records
              if r.get("type") == "job" and r.get("status") == "ok"]
        assert len(ok) == total
        assert len(set(ok)) == total
