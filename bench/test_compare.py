"""Self-tests of the regression gate's verdicts on synthetic results."""

import json

import pytest

from bench import compare
from bench.compare import Side, judge

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def result(setup, rate=100.0, attempted=10, failed=0, correct=True):
    return {"workloads": {"wl": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}}}}}


def verdicts(a, b):
    rows, failures = compare.compare(a, b, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, failures


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_same_code_is_unchanged():
    found, failures = verdicts([result(v) for v in STEADY],
                               [result(v) for v in reversed(STEADY)])
    assert found == {"setup_s": "unchanged", "rate": "unchanged"}
    assert failures == []


def test_slower_beyond_bound_regresses():
    found, failures = verdicts([result(v) for v in STEADY],
                               [result(v * 1.3) for v in STEADY])
    assert found["setup_s"] == "regressed"
    assert len(failures) == 1 and "setup_s" in failures[0]


def test_higher_is_better_metrics_regress_downwards():
    found, _ = verdicts([result(1.0, rate=100 * v) for v in STEADY],
                        [result(1.0, rate=70 * v) for v in STEADY])
    assert found["rate"] == "regressed"


def test_claim_rule_needs_nine_of_ten_wins_beyond_iqr():
    found, failures = verdicts([result(v) for v in STEADY],
                               [result(v * 0.8) for v in STEADY])
    assert found["setup_s"] == "improved" and failures == []
    # Within A's interquartile range: not a gain.
    found, _ = verdicts([result(v) for v in STEADY],
                        [result(v - 0.005) for v in STEADY])
    assert found["setup_s"] == "unchanged"
    # Fewer than ten pairs never claim a gain.
    found, _ = verdicts([result(1.0)], [result(0.5)])
    assert found["setup_s"] == "unchanged"


def test_noisy_metric_is_unresolved_unless_every_run_is_better():
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    found, failures = verdicts([result(v) for v in noisy],
                               [result(v * 1.05) for v in noisy])
    assert found["setup_s"] == "unresolved" and failures == []
    better = [0.3 + 0.01 * i for i in range(10)]
    assert judge(Side.of(noisy), Side.of(better), 0.1, "lower")[0] in (
        "improved", "unchanged")
    worse = [v + 5 for v in noisy]
    assert judge(Side.of(noisy), Side.of(worse), 0.1, "lower")[0] == (
        "regressed")


def test_higher_failure_share_and_failed_checks_fail_the_gate():
    _, failures = verdicts([result(1.0)], [result(1.0, failed=1)])
    assert any("failure share" in f for f in failures)
    _, failures = verdicts([result(1.0)], [result(1.0, correct=False)])
    assert any("checks" in f for f in failures)


def fidelity(log_err=0.418, acc=0.813, cr=11.16):
    def workload(extras):
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {},
                "extras": extras}
    return {"workloads": {
        "paper_figs": workload({"fig14_log_err": log_err}),
        "table6_train": workload({"table6_da_acc": acc, "table6_da_cr": cr})}}


def fidelity_verdicts(a, b):
    rows, failures = compare.compare_fidelity([a], [b])
    return {row["figure"]: row["verdict"] for row in rows}, failures


def test_fidelity_within_tolerance_is_unchanged():
    found, failures = fidelity_verdicts(
        fidelity(), fidelity(log_err=0.418 + 1e-12, acc=0.810, cr=11.0))
    assert set(found.values()) == {"unchanged"} and failures == []


def test_fidelity_drift_fails_the_gate():
    found, failures = fidelity_verdicts(fidelity(), fidelity(log_err=0.43))
    assert found["fig14_log_err"] == "regressed"
    assert len(failures) == 1 and "fig14_log_err" in failures[0]
    found, failures = fidelity_verdicts(fidelity(), fidelity(acc=0.80))
    assert found["table6_da_acc"] == "regressed" and len(failures) == 1
    # 3% lower compression ratio is beyond the 2% relative tolerance.
    found, failures = fidelity_verdicts(fidelity(), fidelity(cr=11.16 * 0.97))
    assert found["table6_da_cr"] == "regressed" and len(failures) == 1
    # Closer to the paper is reported, not failed.
    found, failures = fidelity_verdicts(fidelity(), fidelity(log_err=0.3))
    assert found["fig14_log_err"] == "improved" and failures == []


def test_main_fails_on_fidelity_drift(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(fidelity()))
    b.write_text(json.dumps(fidelity(acc=0.7)))
    assert compare.main([str(a), "--", str(b)]) == 1
    assert "FAIL table6_train: table6_da_acc" in capsys.readouterr().out


def test_main_reads_files_and_sets(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([result(v) for v in STEADY]))
    b.write_text(json.dumps(result(1.5)))
    assert compare.main([str(a), "--", str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(a), "--", str(a)]) == 0
    assert compare.main([str(a)]) == 2


@pytest.mark.parametrize("values", [[1.0], [1.0, 2.0, 3.0]])
def test_side_of_single_and_many(values):
    side = Side.of(values)
    assert side.values == values
    assert side.spread >= 0 and side.iqr >= 0
