"""Fig. 19: contribution of each proposed technique to speedup and DRAM
reduction, relative to HyGCN-C (paper: 4.8x -> 4.7x -> 1.1x speedups and
5.8x -> 2.5x -> 4.4x DRAM steps)."""

from conftest import once

from repro.eval import print_table
from repro.report import run_experiment


def test_fig19_technique_ablation(benchmark):
    steps = once(benchmark, run_experiment, "ablation_fig19",
                 dataset="cora", model="gcn").value
    order = ["hygcn-c", "quant+bitmap", "+adaptive-package", "+condense-edge"]
    base = steps["hygcn-c"]
    rows = []
    prev = base
    for key in order:
        rep = steps[key]
        rows.append([key,
                     base.total_cycles / rep.total_cycles,
                     prev.total_cycles / rep.total_cycles,
                     base.traffic.transferred_bytes / rep.traffic.transferred_bytes,
                     rep.dram_mb])
        prev = rep
    print_table(rows, ["config", "speedup_vs_hygcn-c", "step_speedup",
                       "dram_reduction", "dram_MB"],
                title="Fig. 19 — ablation of the three techniques")

    cycles = [steps[k].total_cycles for k in order]
    dram = [steps[k].traffic.transferred_bytes for k in order]
    assert cycles[0] > cycles[1] >= cycles[2] >= cycles[3]
    assert dram[0] > dram[1] >= dram[2] > dram[3]
    # Quantization and the package format contribute the bulk (paper:
    # 4.8x and 4.7x), Condense-Edge a small latency step (1.1x).
    assert cycles[0] / cycles[1] > 1.5
    assert cycles[1] / cycles[2] > 1.5
