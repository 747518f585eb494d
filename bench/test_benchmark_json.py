"""Self-tests of ``BENCHMARK.json`` against the benchmark's code."""

import json
import re
from pathlib import Path

from bench import trace, worker

SPEC = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_limits():
    workloads = SPEC["workloads"]
    e2e = SPEC["end_to_end"]
    layers = SPEC["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in e2e + layers:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_declarations_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        trace.layer_metric_units())
