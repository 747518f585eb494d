"""Table I: accuracy and compression of the DQ baseline as the uniform
bitwidth shrinks (paper: accuracy degrades from 8-bit to 4-bit on
CiteSeer GIN while CR grows 4x -> 8x)."""

from conftest import full_mode, once

from repro.eval import print_table
from repro.report import run_experiment


def test_tab1_dq_bitwidth_sweep(benchmark, quick):
    dataset = "citeseer" if full_mode() else "cora"
    out = once(benchmark, run_experiment, "dq_bitwidth_sweep",
               dataset=dataset, model="gin", bitwidths=(8, 6, 4),
               quick=quick).value
    rows = [[cfg, vals["accuracy"], vals["cr"]] for cfg, vals in out.items()]
    print_table(rows, ["config", "accuracy", "compression_ratio"],
                title=f"Table I — DQ bitwidth sweep (GIN, {dataset})",
                float_format="{:.3f}")

    # CR grows monotonically with fewer bits.
    assert out["4bit"]["cr"] > out["6bit"]["cr"] > out["8bit"]["cr"]
    # 8-bit DQ is close to FP32; 4-bit falls behind 8-bit (Table I shape).
    assert out["8bit"]["accuracy"] > out["fp32"]["accuracy"] - 0.10
    assert out["4bit"]["accuracy"] <= out["8bit"]["accuracy"] + 0.02
