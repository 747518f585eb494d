"""Self-tests of the span recorder, the layer wrappers and the
self-time arithmetic (``PYTHONPATH=src python -m pytest bench -q``)."""

import sys
import textwrap
import threading

import pytest

from bench import trace
from bench.trace import Recorder, Target, install, layer_metrics, self_times


def _record(span_id, parent, name, start, end, hit=None):
    record = {"id": span_id, "parent": parent, "name": name,
              "start_ns": start, "end_ns": end, "label": ""}
    if hit is not None:
        record["hit"] = hit
    return record


def test_self_time_is_total_minus_children():
    records = [
        _record("r", None, "root", 0, 100),
        _record("a", "r", "layer.a", 10, 50),
        _record("b", "a", "layer.b", 20, 30),
        _record("c", "r", "layer.b", 60, 90),
    ]
    own = self_times(records)
    assert own == {"r": 100 - 40 - 30, "a": 40 - 10, "b": 10, "c": 30}


def test_recorded_children_never_sum_above_parent():
    recorder = Recorder("t")

    def work(depth):
        with recorder.span(f"level{depth}"):
            if depth < 3:
                for _ in range(3):
                    work(depth + 1)

    with recorder.span("root") as root_id:
        recorder.default_parent = root_id
        threads = [threading.Thread(target=work, args=(1,))]
        work(1)
        for thread in threads:
            thread.start()
            thread.join()
    records = recorder.records()
    own = self_times(records)
    assert all(value >= 0 for value in own.values())
    by_id = {r["id"]: r for r in records}
    for record in records:
        children = [r for r in records if r["parent"] == record["id"]]
        assert sum(c["end_ns"] - c["start_ns"] for c in children) <= (
            record["end_ns"] - record["start_ns"])
        for child in children:
            assert record["start_ns"] <= child["start_ns"]
            assert child["end_ns"] <= record["end_ns"]
    # The thread's top span attached to the default parent.
    assert sum(1 for r in records if r["name"] == "level1"
               and by_id[r["parent"]]["name"] == "root") == 2


def test_layer_metrics_accounting():
    records = [
        _record("r", None, "wl.cold", 0, 1000),
        _record("e", "r", "eval.engine.SweepEngine.run", 0, 900),
        _record("p", "e", "graphs.partition_graph", 100, 700),
        _record("g1", "e", "artifacts.ArtifactStore.get", 700, 750, hit=True),
        _record("g2", "e", "artifacts.ArtifactStore.get", 750, 800, hit=False),
    ]
    metrics = layer_metrics(records)
    assert metrics["graphs.partition_graph.self_s"] == 600e-9
    assert metrics["graphs.partition_graph.calls"] == 1
    assert metrics["artifacts.ArtifactStore.get.hit_ratio"] == 0.5
    assert metrics["eval.engine.SweepEngine.run.total_s"] == 900e-9
    # Root self (100) + engine self (900 - 700 = 200) are unattributed.
    assert metrics["unattributed_s"] == pytest.approx(300e-9)
    assert metrics["attributed_share"] == pytest.approx(0.7)
    assert set(trace.layer_metric_units()) >= set(metrics)


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A throwaway package with aliases, descriptors and dispatch dicts."""
    root = tmp_path / "benchfake"
    root.mkdir()
    (root / "__init__.py").write_text("from .core import work\n")
    (root / "core.py").write_text(textwrap.dedent("""
        def work(x):
            return x + 1

        class Thing:
            def method(self, x):
                return work(x) * 2
            alias = method

            @staticmethod
            def static(x):
                return x - 1

            @classmethod
            def build(cls):
                return cls()

            def get(self, key, default=None):
                return default if key is None else key
    """))
    (root / "user.py").write_text(textwrap.dedent("""
        from .core import work as renamed
        TABLE = {"w": renamed}

        def call():
            return renamed(1) + TABLE["w"](2)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import benchfake.user  # noqa: F401
    yield sys.modules
    for name in [n for n in sys.modules if n.startswith("benchfake")]:
        del sys.modules[name]


TARGETS = (
    Target("fake.work", "benchfake.core", "work"),
    Target("fake.Thing.method", "benchfake.core", "Thing.method"),
    Target("fake.Thing.static", "benchfake.core", "Thing.static"),
    Target("fake.Thing.build", "benchfake.core", "Thing.build"),
    Target("fake.Thing.get", "benchfake.core", "Thing.get", hits=True),
    Target("fake.gone", "benchfake.core", "gone"),
)


def test_wrappers_catch_aliases_and_keep_descriptors(fakepkg):
    core, user, pkg = (fakepkg["benchfake.core"], fakepkg["benchfake.user"],
                       fakepkg["benchfake"])
    originals = (core.work, core.Thing.__dict__["method"],
                 core.Thing.__dict__["static"], core.Thing.__dict__["build"],
                 user.renamed, user.TABLE["w"], pkg.work)
    recorder = Recorder("t")
    uninstall = install(recorder, TARGETS, package="benchfake")

    assert user.call() == 2 + 3
    thing = core.Thing.build()
    assert thing.method(1) == 4 and thing.alias(1) == 4
    assert core.Thing.static(5) == 4 and thing.static(5) == 4
    assert thing.get("k") == "k" and thing.get(None) is None
    assert pkg.work(0) == 1
    assert isinstance(core.Thing.__dict__["static"], staticmethod)
    assert isinstance(core.Thing.__dict__["build"], classmethod)

    names = [r["name"] for r in recorder.records()]
    assert names.count("fake.work") == 2 + 2 + 1   # call(), 2x method, pkg
    assert names.count("fake.Thing.method") == 2     # method + alias
    assert names.count("fake.Thing.static") == 2
    assert names.count("fake.Thing.build") == 1
    gets = [r for r in recorder.records() if r["name"] == "fake.Thing.get"]
    assert [r["hit"] for r in gets] == [True, False]

    assert uninstall() == ["fake.gone"]
    assert (core.work, core.Thing.__dict__["method"],
            core.Thing.__dict__["static"], core.Thing.__dict__["build"],
            user.renamed, user.TABLE["w"], pkg.work) == originals
    assert core.Thing.__dict__["alias"] is originals[1]
    count = len(recorder.spans)
    user.call()
    assert len(recorder.spans) == count


def test_write_and_read_round_trip(tmp_path):
    recorder = Recorder("t", default_parent="parent.0", label="wl/0")
    with recorder.span("a"):
        pass
    path = tmp_path / "trace.jsonl"
    recorder.write(path)
    records = trace.read_records(path)
    assert [r["name"] for r in records] == ["a", trace.WRITE_SPAN]
    assert all(r["parent"] == "parent.0" and r["label"] == "wl/0"
               for r in records)
