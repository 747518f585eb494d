"""Table VI: accuracy + compression of FP32 / DQ-INT4 / Degree-Aware.

Paper shape: Degree-Aware beats DQ-INT4's accuracy on every task while
compressing further (up to 18.6x vs 8x), staying near FP32.
"""

from conftest import full_mode, once

from repro.eval import print_table
from repro.report import run_experiment


def test_tab6_accuracy_comparison(benchmark, quick):
    cases = (("cora", "gcn"), ("cora", "gin")) if full_mode() else \
        (("cora", "gcn"),)
    out = once(benchmark, run_experiment, "accuracy_comparison",
               cases=cases, quick=quick).value

    rows = []
    for case, methods in out.items():
        for method, vals in methods.items():
            rows.append([case, method, vals["accuracy"], vals["avg_bits"],
                         vals["cr"]])
    print_table(rows, ["case", "method", "accuracy", "avg_bits", "CR"],
                title="Table VI — FP32 vs DQ-INT4 vs Degree-Aware",
                float_format="{:.3f}")

    for case, methods in out.items():
        ours = methods["degree-aware"]
        dq = methods["dq-int4"]
        fp32 = methods["fp32"]
        # Ours: higher accuracy than DQ-INT4 at a higher CR.
        assert ours["accuracy"] >= dq["accuracy"], case
        assert ours["cr"] > dq["cr"], case
        # Ours stays in FP32's neighborhood (paper: negligible loss).
        assert fp32["accuracy"] - ours["accuracy"] < 0.15, case
