"""The durable content-addressed artifact store (:mod:`repro.artifacts`).

Covers the full robustness contract: id derivation, the crash-safe
write protocol (including SIGKILLed writers at injected points and
lock-free same-id races), verification and quarantine-then-rebuild,
one damage matrix through every local path that calls ``admit``, GC
liveness from journals and pins, export/import that rejects damaged
archives whole, fault-injection hooks, and the sweep engine's job
results and memos in the store.
"""

import http.client
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.artifacts import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactStore,
    artifact_store,
    canonical_inputs,
    derive_artifact_id,
)
from repro.eval.engine import temporary_cache_dir
from repro.faults import inject_faults

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork workers")

PRODUCER = "test-producer"


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(directory=tmp_path / "cache")


def _put_demo(store, n=1, kind="demo"):
    """Publish n distinct entries; returns their ids."""
    return [store.put(kind, {"n": i}, {"value": i}, producer=PRODUCER)
            for i in range(n)]


class TestDeriveId:
    def test_deterministic_and_well_formed(self):
        a = derive_artifact_id("sim-report", {"fp": "abc"}, producer="p1")
        b = derive_artifact_id("sim-report", {"fp": "abc"}, producer="p1")
        assert a == b
        assert a.startswith("art_") and len(a) == 4 + 16
        assert all(c in "0123456789abcdef" for c in a[4:])

    def test_key_order_is_canonical(self):
        a = derive_artifact_id("k", {"x": 1, "y": 2}, producer="p")
        b = derive_artifact_id("k", {"y": 2, "x": 1}, producer="p")
        assert a == b

    def test_tuple_and_list_inputs_collide_by_design(self):
        a = derive_artifact_id("k", {"shape": (2, 3)}, producer="p")
        b = derive_artifact_id("k", {"shape": [2, 3]}, producer="p")
        assert a == b

    def test_numpy_scalars_coerce(self):
        np = pytest.importorskip("numpy")
        a = derive_artifact_id("k", {"seed": np.int64(7)}, producer="p")
        b = derive_artifact_id("k", {"seed": 7}, producer="p")
        assert a == b

    @pytest.mark.parametrize("field", ["kind", "inputs", "producer"])
    def test_every_manifest_field_feeds_the_id(self, field):
        base = dict(kind="k", inputs={"x": 1}, producer="p")
        other = dict(base)
        other[field] = {"x": 2} if field == "inputs" else "other"
        assert (derive_artifact_id(base["kind"], base["inputs"],
                                   producer=base["producer"])
                != derive_artifact_id(other["kind"], other["inputs"],
                                      producer=other["producer"]))

    def test_non_json_inputs_raise(self):
        with pytest.raises(ArtifactError, match="JSON-primitive"):
            derive_artifact_id("k", {"bad": object()}, producer="p")
        with pytest.raises(ArtifactError, match="must be a dict"):
            canonical_inputs([1, 2, 3])

    def test_default_producer_is_the_code_version(self):
        from repro.perf.cache import code_version

        assert (derive_artifact_id("k", {}) ==
                derive_artifact_id("k", {}, producer=code_version()))


class TestPutGet:
    def test_round_trip(self, store):
        value = {"rows": [[1, 2.5], [3, 4.5]], "label": "x"}
        art_id = store.put("demo", {"case": 1}, value, producer=PRODUCER)
        assert art_id == derive_artifact_id("demo", {"case": 1},
                                            producer=PRODUCER)
        assert art_id in store
        assert store.get(art_id) == value
        assert store.stats()["hits"] == 1

    def test_repeat_put_is_idempotent(self, store):
        first = store.put("demo", {"case": 1}, {"v": 1}, producer=PRODUCER)
        again = store.put("demo", {"case": 1}, {"v": 1}, producer=PRODUCER)
        assert first == again
        assert store.puts == 1  # the second put never rewrote anything

    def test_get_miss_returns_default(self, store):
        sentinel = object()
        assert store.get("art_" + "0" * 16, sentinel) is sentinel
        assert store.stats()["misses"] == 1

    def test_unpicklable_value_fails_put_cleanly(self, store):
        art_id = store.put("demo", {"case": 1}, lambda: None,
                           producer=PRODUCER)
        assert art_id is None
        assert store.write_failures == 1
        assert len(store.ids()) == 0
        # Not a read-only store: the next write still lands.
        assert store.put("demo", {"case": 2}, 7, producer=PRODUCER)

    def test_get_or_build_builds_once(self, store):
        calls = []

        def build():
            calls.append(1)
            return {"big": list(range(32))}

        v1, id1 = store.get_or_build("demo", {"case": 2}, build,
                                     producer=PRODUCER)
        v2, id2 = store.get_or_build("demo", {"case": 2}, build,
                                     producer=PRODUCER)
        assert v1 == v2 and id1 == id2
        assert len(calls) == 1

    def test_meta_lands_in_the_manifest(self, store):
        art_id = store.put("demo", {"case": 3}, 42,
                           meta={"note": "hello"}, producer=PRODUCER)
        manifest = store.read_manifest(art_id)
        assert manifest["meta"] == {"note": "hello"}
        assert manifest["kind"] == "demo"
        assert manifest["producer"] == PRODUCER


class TestQuarantine:
    def _corrupt_payload(self, store, art_id):
        payload = store.payload_path(art_id)
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))

    def test_corrupt_read_quarantines_and_warns_once(self, store):
        ids = _put_demo(store, 2)
        for art_id in ids:
            self._corrupt_payload(store, art_id)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt entry"):
            assert store.get(ids[0], "fallback") == "fallback"
        # Second quarantine is counted but not re-warned.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert store.get(ids[1], "fallback") == "fallback"
        assert store.quarantined == 2
        records = store.quarantine_entries()
        assert len(store.ids()) == 0
        assert len(records) == 2
        assert {r["id"] for r in records} == set(ids)
        assert all("sha256" in r["reason"] for r in records)

    def test_quarantined_entry_rebuilds_on_next_reference(self, store):
        art_id = store.put("demo", {"n": 0}, {"value": 0}, producer=PRODUCER)
        self._corrupt_payload(store, art_id)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            value, rebuilt = store.get_or_build(
                "demo", {"n": 0}, lambda: {"value": 0}, producer=PRODUCER)
        assert rebuilt == art_id and value == {"value": 0}
        assert store.get(art_id) == {"value": 0}  # served again
        assert store.verify()["ok"] == 1

    def test_verify_rehashes_the_corpus(self, store):
        ids = _put_demo(store, 3)
        self._corrupt_payload(store, ids[1])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = store.verify()
        assert report["checked"] == 3 and report["ok"] == 2
        assert [r["id"] for r in report["quarantined"]] == [ids[1]]
        assert report["quarantine_entries"] == 1

    def test_verify_catches_edited_manifest(self, store):
        """A self-consistent manifest+payload pair under the wrong id —
        only the id re-derivation check can catch this."""
        art_id = _put_demo(store)[0]
        _edit_manifest(inputs={"n": 999})(store.entry_dir(art_id))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = store.verify()
        assert len(report["quarantined"]) == 1
        assert "re-derive" in report["quarantined"][0]["reason"]

    def test_unpicklable_payload_quarantines_with_distinct_reason(
            self, store):
        art_id = _put_demo(store)[0]
        import hashlib
        import pickletools  # noqa: F401  (stdlib sanity: pickle is here)

        garbage = b"\x80\x05not a pickle at all"
        store.payload_path(art_id).write_bytes(garbage)
        # Make the manifest consistent with the garbage so the hash
        # passes and only unpickling fails.
        manifest = json.loads(store.manifest_path(art_id).read_bytes())
        manifest["payload_sha256"] = hashlib.sha256(garbage).hexdigest()
        manifest["payload_bytes"] = len(garbage)
        store.manifest_path(art_id).write_text(
            json.dumps(manifest, sort_keys=True))
        with pytest.warns(RuntimeWarning, match="does not unpickle"):
            assert store.get(art_id, None) is None
        assert store.quarantined == 1


def _flip_payload_byte(entry):
    data = bytearray((entry / "payload.bin").read_bytes())
    data[len(data) // 2] ^= 0xFF
    (entry / "payload.bin").write_bytes(bytes(data))


def _truncate_payload(entry):
    payload = entry / "payload.bin"
    payload.write_bytes(payload.read_bytes()[:-1])


def _edit_manifest(**fields):
    def damage(entry):
        manifest = json.loads((entry / "manifest.json").read_bytes())
        manifest.update(fields)
        (entry / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True))
    return damage


def _stringify_payload_bytes(entry):
    manifest = json.loads((entry / "manifest.json").read_bytes())
    _edit_manifest(payload_bytes=str(manifest["payload_bytes"]))(entry)


def _garble_manifest(entry):
    (entry / "manifest.json").write_bytes(b"{not json")


# Damage to one entry directory -> the admit() reason it must produce.
DAMAGES = {
    "flipped-byte": (_flip_payload_byte, r"sha256 .* does not match"),
    "truncated-payload": (_truncate_payload, r"bytes, manifest promises"),
    "non-int-payload-bytes": (_stringify_payload_bytes,
                              r"payload_bytes '\d+' is not a size"),
    "edited-inputs": (_edit_manifest(inputs={"n": 999}), r"re-derive"),
    "wrong-schema": (_edit_manifest(schema="repro.artifact/v0"),
                     r"manifest schema"),
    "id-mismatch": (_edit_manifest(id="art_" + "0" * 16), r"claims id"),
    "non-json-manifest": (_garble_manifest, r"not valid JSON"),
}


def _http_status(url, path):
    parsed = urlsplit(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                      timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


class TestDamageMatrix:
    """One damage, every local path that calls ``admit``: ``get`` misses
    and quarantines, ``verify`` quarantines, ``import_`` rejects the
    corpus tarball whole, and serve's ``GET /artifacts/<id>`` answers
    404."""

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_every_local_path_refuses_damage(self, tmp_path, edit_corpus,
                                             damage):
        from repro.serve import ServeConfig, ServerThread

        apply, reason = DAMAGES[damage]

        def damaged_store(tag):
            store = ArtifactStore(directory=tmp_path / tag)
            art_id = _put_demo(store)[0]
            apply(store.entry_dir(art_id))
            return store, art_id

        store, art_id = damaged_store("get")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(art_id, "miss") == "miss"
        assert art_id not in store and store.misses == 1
        (record,) = store.quarantine_entries()
        assert record["id"] == art_id and re.search(reason, record["reason"])

        store, art_id = damaged_store("verify")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = store.verify()
        assert report["ok"] == 0
        assert [r["id"] for r in report["quarantined"]] == [art_id]
        assert re.search(reason, report["quarantined"][0]["reason"])

        source = ArtifactStore(directory=tmp_path / "source")
        ids = _put_demo(source, 2)
        corpus = tmp_path / "corpus.tar"
        source.export(corpus)
        edit_corpus(corpus, lambda root: apply(root / "objects" / ids[1]))
        target = ArtifactStore(directory=tmp_path / "target")
        with pytest.raises(ArtifactIntegrityError, match=reason):
            target.import_(corpus)
        assert target.ids() == []  # the clean entry was not published

        with temporary_cache_dir(tmp_path / "serve"):
            store, art_id = damaged_store("serve")
            with ServerThread(ServeConfig(port=0, quiet=True)) as handle:
                with pytest.warns(RuntimeWarning, match="quarantined"):
                    status = _http_status(handle.url, f"/artifacts/{art_id}")
            assert status == 404
            assert art_id not in store


KILL_POINTS = ["pre-fsync", "post-payload", "pre-rename", "post-rename"]

_KILL_WRITER = """
import os, signal, sys
sys.path.insert(0, {src!r})
import repro.artifacts as A

point, store_dir = sys.argv[1], sys.argv[2]

def die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

if point == "pre-fsync":
    A._fsync_file = die                 # payload written, nothing durable
elif point == "post-payload":
    A._write_manifest = die             # payload durable, no manifest
elif point == "pre-rename":
    A._publish = die                    # complete temp entry, unpublished
elif point == "post-rename":
    _rename = os.rename
    def publish_then_die(src, dst):
        _rename(src, dst)
        die()
    A._publish = publish_then_die       # published, then crashed
else:
    raise SystemExit(f"unknown kill point {{point!r}}")

store = A.ArtifactStore(directory=store_dir)
store.put("kill-test", {{"point": point}}, {{"data": list(range(256))}},
          producer={producer!r})
print("WRITER-SURVIVED")               # must be unreachable
"""


class TestKillDuringWrite:
    """Satellite 3: SIGKILL a writer at injected points; the store is
    always complete-and-verifiable or empty, with no temp leaks."""

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_killed_writer_leaves_no_partial_entry(self, tmp_path, point):
        store_dir = tmp_path / "cache"
        script = _KILL_WRITER.format(src=SRC_ROOT, producer=PRODUCER)
        proc = subprocess.run(
            [sys.executable, "-c", script, point, str(store_dir)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, (proc.stdout, proc.stderr)
        assert "WRITER-SURVIVED" not in proc.stdout

        store = ArtifactStore(directory=store_dir)
        report = store.verify()  # re-hashes everything + sweeps dead tmp
        assert report["quarantined"] == []  # nothing partial was published
        art_id = derive_artifact_id("kill-test", {"point": point},
                                    producer=PRODUCER)
        if point == "post-rename":
            # The crash landed after publication: complete and servable.
            assert report["checked"] == 1 and report["ok"] == 1
            assert store.get(art_id) == {"data": list(range(256))}
        else:
            # Crash before publication: the store is empty.
            assert report["checked"] == 0
            assert art_id not in store
        # The dead writer's temp directory was swept — no leaks.
        assert len(list(store.tmp.iterdir())) == 0
        # And a fresh writer converges on the complete entry either way.
        rebuilt = store.put("kill-test", {"point": point},
                            {"data": list(range(256))}, producer=PRODUCER)
        assert rebuilt == art_id
        assert store.verify()["ok"] == 1


@needs_fork
class TestConcurrentWriters:
    def test_same_id_writers_converge_lock_free(self, tmp_path):
        """N processes race the same content address; exactly one entry
        results, every writer reports success, nothing leaks."""
        store_dir = tmp_path / "cache"
        n = 8
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        results = ctx.SimpleQueue()

        def writer(idx):
            local = ArtifactStore(directory=store_dir)
            barrier.wait()  # maximize rename collisions
            art_id = local.put("race", {"shared": True},
                               {"data": list(range(512))}, producer=PRODUCER)
            results.put((idx, art_id, local.races_lost))

        procs = [ctx.Process(target=writer, args=(i,)) for i in range(n)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        outcomes = [results.get() for _ in range(n)]
        ids = {art_id for _, art_id, _ in outcomes}
        assert len(ids) == 1 and None not in ids  # all converged
        store = ArtifactStore(directory=store_dir)
        assert store.ids() == sorted(ids)
        assert store.get(next(iter(ids))) == {"data": list(range(512))}
        report = store.verify()
        assert report["checked"] == report["ok"] == 1
        assert len(list(store.tmp.iterdir())) == 0  # losers cleaned up


class TestGcLiveness:
    def test_journal_refs_and_pins_survive_gc(self, tmp_path):
        from repro.eval.journal import RunJournal

        base = tmp_path / "cache"
        store = ArtifactStore(directory=base)
        journaled, pinned, dead = _put_demo(store, 3)
        journal = RunJournal.create(spec={}, directory=base)
        journal.record_job("fp-1", "ok", artifact=journaled)
        store.pin(pinned)

        plan = store.gc()  # dry-run by default
        assert plan["dry_run"] is True
        assert plan["removed"] == [dead]
        assert sorted(plan["kept_live"]) == sorted([journaled, pinned])
        assert len(store.ids()) == 3  # dry-run deleted nothing

        outcome = store.gc(apply=True)
        assert outcome["removed"] == [dead]
        assert sorted(store.ids()) == sorted([journaled, pinned])
        assert store.verify()["ok"] == 2

    def test_keep_days_protects_young_unreferenced_entries(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "cache")
        art_id = _put_demo(store)[0]
        fresh = store.gc(keep_days=1.0, apply=True)
        assert fresh["kept_young"] == [art_id] and fresh["removed"] == []
        # A week from now the same entry is swept.
        later = store.gc(keep_days=1.0, apply=True,
                         now=__import__("time").time() + 7 * 86400)
        assert later["removed"] == [art_id]
        assert store.ids() == []

    def test_gc_sweeps_quarantine(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "cache")
        art_id = _put_demo(store)[0]
        payload = store.payload_path(art_id)
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            store.verify()
        assert len(store.quarantine_entries()) == 1
        outcome = store.gc(apply=True)
        assert len(outcome["quarantine_removed"]) == 1
        assert len(store.quarantine_entries()) == 0

    def test_unpin_removes_protection(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "cache")
        art_id = _put_demo(store)[0]
        store.pin(art_id)
        store.pin(art_id)  # idempotent
        assert store.pins() == {art_id}
        store.unpin(art_id)
        assert store.pins() == set()
        assert store.gc()["removed"] == [art_id]


class TestExportImport:
    @pytest.mark.parametrize("dest_name", ["corpus.tar.gz", "corpus.tar"])
    def test_round_trip(self, tmp_path, dest_name):
        src_store = ArtifactStore(directory=tmp_path / "a")
        ids = _put_demo(src_store, 3)
        dest = tmp_path / dest_name
        outcome = src_store.export(dest)
        assert outcome["exported"] == 3 and outcome["skipped"] == []

        dst_store = ArtifactStore(directory=tmp_path / "b")
        report = dst_store.import_(dest)
        assert report["verified"] == 3
        assert report["imported"] == 3 and report["skipped"] == 0
        assert dst_store.ids() == sorted(ids)
        for i, art_id in enumerate(ids):
            assert dst_store.get(art_id) == {"value": i}
        assert dst_store.verify()["ok"] == 3

    def test_export_refuses_a_non_tar_destination(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "a")
        _put_demo(store, 3)
        with pytest.raises(ArtifactError, match=r"\.tar, \.tar\.gz or \.tgz"):
            store.export(tmp_path / "corpus-tree")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    def test_reimport_skips_existing(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "a")
        _put_demo(store, 2)
        dest = tmp_path / "corpus.tgz"
        store.export(dest)
        report = store.import_(dest)
        assert report["imported"] == 0 and report["skipped"] == 2

    def test_export_subset_and_unknown_id(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "a")
        ids = _put_demo(store, 3)
        outcome = store.export(tmp_path / "one.tar", ids=ids[:1])
        assert outcome["exported"] == 1
        with pytest.raises(ArtifactError, match="unknown artifact"):
            store.export(tmp_path / "two.tar", ids=["art_" + "0" * 16])

    def test_export_excludes_corrupt_entries(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "a")
        ids = _put_demo(store, 2)
        payload = store.payload_path(ids[0])
        payload.write_bytes(payload.read_bytes()[:-1])  # truncate
        with pytest.warns(RuntimeWarning, match="quarantined"):
            outcome = store.export(tmp_path / "corpus.tar.gz")
        assert outcome["exported"] == 1
        assert [s["id"] for s in outcome["skipped"]] == [ids[0]]
        # What shipped is importable and clean.
        other = ArtifactStore(directory=tmp_path / "b")
        assert other.import_(tmp_path / "corpus.tar.gz")["imported"] == 1

    def test_import_rejects_edited_manifest(self, tmp_path, edit_corpus):
        store = ArtifactStore(directory=tmp_path / "a")
        art_id = _put_demo(store)[0]
        corpus = tmp_path / "corpus.tar"
        store.export(corpus)
        edit_corpus(corpus, lambda root: _edit_manifest(inputs={"n": 12345})(
            root / "objects" / art_id))

        target = ArtifactStore(directory=tmp_path / "b")
        with pytest.raises(ArtifactIntegrityError, match="re-derive"):
            target.import_(corpus)
        assert target.ids() == []

    def test_import_rejects_partial_tree(self, tmp_path, edit_corpus):
        import shutil

        store = ArtifactStore(directory=tmp_path / "a")
        ids = _put_demo(store, 2)
        corpus = tmp_path / "corpus.tar"
        store.export(corpus)
        edit_corpus(corpus,
                    lambda root: shutil.rmtree(root / "objects" / ids[0]))

        target = ArtifactStore(directory=tmp_path / "b")
        with pytest.raises(ArtifactIntegrityError, match="partial"):
            target.import_(corpus)
        assert target.ids() == []  # all-or-nothing: entry 2 not published

    def test_import_rejects_truncated_tarball(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "a")
        _put_demo(store, 2)
        dest = tmp_path / "corpus.tar.gz"
        store.export(dest)
        data = dest.read_bytes()
        dest.write_bytes(data[:len(data) // 2])

        target = ArtifactStore(directory=tmp_path / "b")
        with pytest.raises(ArtifactIntegrityError,
                           match="truncated or corrupt"):
            target.import_(dest)
        assert target.ids() == []

    def test_import_rejects_tree_without_corpus_index(self, tmp_path,
                                                      edit_corpus):
        store = ArtifactStore(directory=tmp_path / "a")
        _put_demo(store)
        corpus = tmp_path / "corpus.tar"
        store.export(corpus)
        edit_corpus(corpus, lambda root: (root / "corpus.json").unlink())
        target = ArtifactStore(directory=tmp_path / "b")
        with pytest.raises(ArtifactIntegrityError, match="corpus.json"):
            target.import_(corpus)


class TestFaultHooks:
    def test_torn_rename_abandons_the_publish(self, store):
        with inject_faults(torn_rename=1.0):
            art_id = store.put("demo", {"n": 0}, {"value": 0},
                               producer=PRODUCER)
        assert art_id is None
        assert len(store.ids()) == 0
        # The abandoned temp entry is droppable garbage, and a later
        # fault-free writer publishes cleanly.
        assert len(list(store.tmp.iterdir())) >= 1
        rebuilt = store.put("demo", {"n": 0}, {"value": 0},
                            producer=PRODUCER)
        assert rebuilt is not None
        assert store.verify()["ok"] == 1

    def test_corrupt_artifact_damages_the_published_payload(self, store):
        with inject_faults(corrupt_artifact=1.0):
            art_id = store.put("demo", {"n": 0}, {"value": 0},
                               producer=PRODUCER)
        assert art_id is not None  # publish succeeded, then bit-rot
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(art_id, "miss") == "miss"
        assert store.quarantined == 1

    def test_cache_readonly_latches_the_store(self, store):
        with inject_faults(cache_readonly=1.0), pytest.warns(
                RuntimeWarning, match="unwritable"):
            assert store.put("demo", {"n": 0}, 1, producer=PRODUCER) is None
        assert store.write_failures == 1
        # Latched: later writes fail silently even without the fault.
        assert store.put("demo", {"n": 1}, 2, producer=PRODUCER) is None
        assert len(store.ids()) == 0


class TestEngineIntegration:
    def test_warm_replay_consumes_artifacts_and_journals_ids(self, tmp_path):
        from repro.eval.engine import SweepEngine
        from repro.eval.journal import RunJournal, referenced_artifacts
        from repro.report import run_experiment

        cache = tmp_path / "cache"
        cold = SweepEngine(workers=0, cache_dir=cache,
                           journal=RunJournal.create(spec={}, directory=cache))
        first = run_experiment("stall_table", engine=cold,
                               datasets=("cora",))
        assert cold.executed_jobs > 0
        loaded = RunJournal.load(cold.journal.run_id, directory=cache)
        journaled_ids = loaded.artifact_ids()
        assert journaled_ids  # every ok line promises a published entry
        assert all(i.startswith("art_") for i in journaled_ids)
        assert journaled_ids <= set(cold.artifacts.ids())
        assert referenced_artifacts(directory=cache) >= journaled_ids

        # A fresh engine over the same store replays from artifacts.
        warm = SweepEngine(workers=0, cache_dir=cache)
        second = run_experiment("stall_table", engine=warm,
                                datasets=("cora",))
        assert warm.executed_jobs == 0
        assert second.rows == first.rows
        consumed = second.metadata["artifacts"]
        assert set(consumed) == journaled_ids
        assert set(consumed.values()) == {"sim-report"}

    def test_job_fingerprint_is_the_artifact_id(self, tmp_path):
        """One key per job: the store, the journal and the remote tier
        all use the id, and its manifest names the job it holds."""
        from repro.eval.engine import SimJob, SweepEngine
        from repro.eval.journal import RunJournal

        cache = tmp_path / "cache"
        engine = SweepEngine(workers=0, cache_dir=cache,
                             journal=RunJournal.create(spec={},
                                                       directory=cache))
        job = SimJob.from_call("mega", "cora", "gcn", {"condense": False},
                               target_average_bits=4.0)
        engine.run([job])
        art_id = engine.job_fingerprint(job)
        assert engine.artifact_ids([job]) == {art_id: "sim-report"}
        (record,) = [r for r in engine.journal.records
                     if r.get("type") == "job"]
        assert record["fingerprint"] == record["artifact"] == art_id
        inputs = engine.artifacts.read_manifest(art_id)["inputs"]
        assert inputs["accelerator"] == "mega"
        assert inputs["variant"] == [["condense", False]]
        assert inputs["target_average_bits"] == 4.0

    def test_engine_stats_surface_the_artifact_store(self, tmp_path):
        from repro.eval.engine import SweepEngine

        engine = SweepEngine(workers=0, cache_dir=tmp_path / "cache")
        assert engine.stats()["artifacts"]["puts"] == 0

    def test_imported_corpus_replays_figures_without_loading_graphs(
            self, tmp_path):
        """Memos ship with the job results: a fresh cache that imported
        the corpus replays paper-suite figures executing no job and
        loading no dataset."""
        from repro.eval.engine import get_engine
        from repro.perf.cache import cache_stats, clear_all_caches
        from repro.report import run_suite_experiment

        names = ("speedup_table", "stall_table", "package_length_study")
        corpus = tmp_path / "corpus.tar"
        with temporary_cache_dir(tmp_path / "a"):
            rows = {name: run_suite_experiment(name, "paper").rows
                    for name in names}
            assert get_engine().artifacts.export(corpus)["skipped"] == []
        with temporary_cache_dir(tmp_path / "b"):
            engine = get_engine()
            assert engine.artifacts.import_(corpus)["imported"] > 0
            clear_all_caches()
            for name in names:
                assert run_suite_experiment(name, "paper").rows == rows[name]
            assert engine.executed_jobs == 0
            assert cache_stats()["dataset"]["misses"] == 0


class TestGlobalStore:
    def test_follows_the_cache_dir(self, tmp_path):
        with temporary_cache_dir(tmp_path / "one"):
            first = artifact_store()
            assert first.base == tmp_path / "one"
            assert artifact_store() is first  # cached per directory
            with temporary_cache_dir(tmp_path / "two"):
                assert artifact_store().base == tmp_path / "two"
            assert artifact_store() is first  # back: the same handle


class TestSharding:
    """The sharded ``objects/<xx>/`` layout is the only place entries are
    read from; anything filed elsewhere is quarantined."""

    def test_put_lands_in_the_shard_directory(self, store):
        from repro.artifacts import shard_of

        art_id = _put_demo(store)[0]
        shard = shard_of(art_id)
        assert len(shard) == 2 and art_id[4:6] == shard
        assert (store.objects / shard / art_id / "payload.bin").is_file()
        assert not (store.objects / art_id).exists()
        assert store.get(art_id) == {"value": 0}
        assert len(store.verify()["shards"]) >= 1

    def test_root_level_entry_is_quarantined_as_misfiled(self, store):
        """An entry at the ``objects/`` root, where the retired flat
        layout put it, is never read: verify quarantines it and gc then
        deletes it."""
        art_id = _put_demo(store)[0]
        os.rename(store.entry_dir(art_id), store.objects / art_id)
        assert store.get(art_id, "miss") == "miss"
        assert store.ids() == []
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = store.verify()
        assert [r["id"] for r in report["quarantined"]] == [art_id]
        assert "filed under shard ''" in report["quarantined"][0]["reason"]
        assert store.gc(apply=True)["quarantine_removed"]
        assert not (store.objects / art_id).exists()
        assert len(store.quarantine_entries()) == 0
