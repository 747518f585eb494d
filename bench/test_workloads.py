"""Shrunken runs of each workload through the benchmark's own code path,
untraced and traced, checking that they pass their output checks,
report the declared metrics (plus the ungated cold and warm times and
peak memory) and touch only the predicted layers."""

import json
import os
from pathlib import Path

import pytest

from bench import trace, worker

SPEC = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())
E2E = {metric["name"] for metric in SPEC["end_to_end"]}
# Sampled by untraced runs without a bound; per-layer in traced runs.
UNGATED = {"cold_s", "warm_s", "peak_rss_mb"}
TRAINING_LAYERS = ("tensor.", "quant.", "nn.")
SIMULATION_LAYERS = ("graphs.partition_graph.", "sim.")


@pytest.fixture
def small(tmp_path, monkeypatch):
    """Tiny inputs, a private cache and a restored default engine."""
    from repro.eval.engine import set_engine
    from repro.perf.cache import clear_all_caches

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-store"))
    monkeypatch.setattr(worker, "WARM_PER_COLD", 1)
    monkeypatch.setattr(worker, "SETUP_PROBES", 1)
    monkeypatch.setattr(worker, "PAPER_EXPERIMENTS", ("speedup_table",))
    monkeypatch.setattr(worker, "PAPER_SUITE", "smoke")
    monkeypatch.setattr(worker, "DSE_DATASET", "cora")
    monkeypatch.setattr(worker, "DSE_TARGETS", 4)
    monkeypatch.setattr(worker, "TABLE6_EPOCHS", 2)
    previous = set_engine(None)
    yield tmp_path
    set_engine(previous)
    clear_all_caches()


def calls(run, prefixes):
    return sum(value for name, value in run.layers.items()
               if name.startswith(prefixes) and name.endswith(".calls"))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_shrunken_workload(small, name, traced):
    tmp = small / "run"
    tmp.mkdir()
    run = worker.Run(name=name, seed=1, trace=traced, tmp=tmp,
                     seconds=1.0 if name == "serve_mixed" else 0.0)
    worker.RUNNERS[name](run)
    assert run.problems == []
    assert run.attempted > 0 and run.failed == 0
    if not traced:
        assert set(run.samples) == E2E | UNGATED
        assert all(run.samples.values())
        return
    assert set(run.layers) == set(trace.layer_metric_units())
    for metric in ("trace_overhead", *UNGATED):
        assert run.layers[metric] > 0
    if name == "table6_train":
        assert calls(run, SIMULATION_LAYERS) == 0
        assert run.layers["nn.train.calls"] > 0
    else:
        assert calls(run, TRAINING_LAYERS) == 0
        assert run.layers["report.run_experiment.calls"] + run.layers[
            "eval.engine.SweepEngine.run.calls"] > 0
