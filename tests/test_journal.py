"""Run journals: durable append, torn-line tolerance, resume queries."""

import json

import pytest

from repro.eval.journal import (RunJournal, gc_runs, list_runs,
                                new_run_id, runs_dir)


class TestRunJournal:
    def test_create_load_round_trip(self, tmp_path):
        journal = RunJournal.create(
            spec={"experiments": ["stall_table"], "suite": "quick"},
            directory=tmp_path)
        journal.record_job("fp-1", "ok", attempts=1, elapsed_s=0.5)
        journal.record_job("fp-2", "failed", attempts=3, elapsed_s=1.25,
                           error="ValueError: boom", kind="error")
        journal.record_experiment("stall_table", executed=1, failed=1)
        journal.record_event("run-complete")

        loaded = RunJournal.load(journal.run_id, directory=tmp_path)
        assert loaded.spec == {"experiments": ["stall_table"],
                               "suite": "quick"}
        assert loaded.completed_jobs() == {"fp-1"}
        assert loaded.failed_jobs() == {"fp-2"}
        assert {r["name"] for r in loaded.records
                if r.get("type") == "experiment"} == {"stall_table"}
        assert loaded.complete

    def test_load_missing_run_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunJournal.load("run-never-created", directory=tmp_path)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = RunJournal.create(spec={}, directory=tmp_path)
        journal.record_job("fp-1", "ok")
        with open(journal.path, "a") as fh:
            fh.write('{"type": "job", "fingerprint": "fp-2", "sta')

        loaded = RunJournal.load(journal.run_id, directory=tmp_path)
        assert loaded.completed_jobs() == {"fp-1"}
        assert not loaded.complete

    def test_torn_header_line_loses_run_header(self, tmp_path):
        """A journal whose only line (the run-spec header) is torn loads
        with ``has_run_header`` False — the resume path refuses it
        instead of silently running the default spec."""
        journal = RunJournal.create(spec={"experiments": ["stall_table"]},
                                    directory=tmp_path)
        assert journal.has_run_header
        journal.path.write_text('{"type": "run", "spec": {"experi')
        loaded = RunJournal.load(journal.run_id, directory=tmp_path)
        assert not loaded.has_run_header
        assert loaded.spec == {}

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = RunJournal.create(spec={}, directory=tmp_path)
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join([lines[0], "not json",
                                           json.dumps({"type": "job"})])
                                + "\n")
        with pytest.raises(ValueError, match="corrupt at line 2"):
            RunJournal.load(journal.run_id, directory=tmp_path)

    def test_unwritable_journal_warns_once_and_continues(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where the runs dir should go")
        journal = RunJournal(new_run_id(), directory=blocker / "nested")
        with pytest.warns(RuntimeWarning, match="unwritable"):
            journal.append({"type": "run", "spec": {}})
        journal.record_job("fp-1", "ok")  # no second warning, no raise
        assert journal.completed_jobs() == {"fp-1"}  # in-memory view intact

    def test_records_are_fsynced_line_per_append(self, tmp_path):
        journal = RunJournal.create(spec={}, directory=tmp_path)
        journal.record_job("fp-1", "ok")
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # header + job, durable without close()
        assert json.loads(lines[1])["fingerprint"] == "fp-1"


class TestRunsDirectory:
    def test_new_run_ids_are_unique_and_sortable(self):
        ids = {new_run_id() for _ in range(5)}
        assert len(ids) == 5
        assert all(run_id.startswith("run-") for run_id in ids)

    def test_list_runs(self, tmp_path):
        assert list_runs(tmp_path) == []
        a = RunJournal.create(spec={}, directory=tmp_path)
        b = RunJournal.create(spec={}, directory=tmp_path)
        assert set(list_runs(tmp_path)) == {a.run_id, b.run_id}
        assert runs_dir(tmp_path) == tmp_path / "runs"


class TestGcRuns:
    """`gc_runs` / `repro list runs --gc`: pruning journaled runs."""

    def test_removes_completed_keeps_resumable(self, tmp_path):
        done = RunJournal.create(run_id="done", directory=tmp_path, spec={})
        done.record_event("run-complete")
        RunJournal.create(run_id="open", directory=tmp_path, spec={})
        outcome = gc_runs(directory=tmp_path)
        assert outcome == {"removed": ["done"], "kept": ["open"]}
        assert list_runs(tmp_path) == ["open"]

    def test_force_removes_resumable(self, tmp_path):
        RunJournal.create(run_id="open", directory=tmp_path, spec={})
        assert gc_runs(directory=tmp_path, force=True)["removed"] == ["open"]
        assert list_runs(tmp_path) == []

    def test_keep_days_spares_recent_completed_runs(self, tmp_path):
        import time

        done = RunJournal.create(run_id="recent", directory=tmp_path, spec={})
        done.record_event("run-complete")
        assert gc_runs(keep_days=1, directory=tmp_path)["kept"] == ["recent"]
        future = time.time() + 2 * 86400
        assert gc_runs(keep_days=1, directory=tmp_path,
                       now=future)["removed"] == ["recent"]

    def test_unreadable_journal_kept_unless_forced(self, tmp_path):
        bad = runs_dir(tmp_path) / "bad"
        bad.mkdir(parents=True)
        (bad / "journal.jsonl").write_text('{"type": "run"\n{{{\nmore\n')
        assert gc_runs(directory=tmp_path)["kept"] == ["bad"]
        assert gc_runs(directory=tmp_path, force=True)["removed"] == ["bad"]

    def test_created_property_reads_header(self, tmp_path):
        journal = RunJournal.create(run_id="stamped", directory=tmp_path,
                                    spec={})
        loaded = RunJournal.load("stamped", directory=tmp_path)
        assert loaded.created is not None and loaded.created > 0
