"""Quickstart: the full MEGA pipeline in ~60 lines.

1. Build the (synthetic) Cora dataset.
2. Train a GCN with Degree-Aware mixed-precision quantization.
3. Store the quantized features in Adaptive-Package format.
4. Simulate the MEGA accelerator and a baseline on the workload.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.baselines import build_baseline
from repro.formats import AdaptivePackageFormat
from repro.graphs import load_dataset
from repro.mega import MegaModel
from repro.nn import TrainConfig
from repro.quant import run_degree_aware, run_fp32
from repro.sim.workload import workload_from_quant_run


def main() -> None:
    print("== 1. dataset ==")
    graph = load_dataset("cora", scale="tiny")  # use scale="train" for the real run
    print(f"{graph.name}: {graph.summary()}")

    print("\n== 2. train FP32 vs Degree-Aware quantized GCN ==")
    config = TrainConfig(epochs=60, patience=50)
    fp32 = run_fp32("gcn", graph, config=config)
    ours = run_degree_aware("gcn", graph, config=config)
    print(f"fp32         accuracy={fp32.test_accuracy:.3f}  CR=1.0x")
    if ours.extras["best_epoch"]:
        accuracy = f"{ours.test_accuracy:.3f}"
    else:  # no epoch was eligible for selection, so no accuracy is credited
        accuracy = (f"none (no epoch of {ours.extras['epochs_run']} "
                    f"met the memory budget)")
    print(f"degree-aware accuracy={accuracy}  "
          f"CR={ours.compression_ratio:.1f}x  avg_bits={ours.average_bits:.2f}")
    values, counts = np.unique(ours.node_bitwidths, return_counts=True)
    print("bit allocation:", dict(zip(values.tolist(), counts.tolist())))

    print("\n== 3. Adaptive-Package storage ==")
    codes = np.clip(np.round(graph.features * 100), 0, 3).astype(np.int64)
    fmt = AdaptivePackageFormat()
    report = fmt.encode(codes, np.clip(ours.node_bitwidths, 2, 8)).report()
    dense_bits = codes.size * 32
    print(f"packages: {report.breakdown['packages']} bits, "
          f"index: {report.breakdown['bitmap']} bits "
          f"({dense_bits / report.total_bits:.1f}x smaller than FP32 dense)")

    print("\n== 4. accelerator simulation ==")
    workload = workload_from_quant_run(graph, "gcn", ours.node_bitwidths)
    mega = MegaModel().simulate(workload)
    # The baseline runs the same graph and features at FP32.
    workload32 = workload_from_quant_run(graph, "gcn", fp32.node_bitwidths,
                                         precision="fp32")
    gcnax = build_baseline("gcnax").simulate(workload32)
    print(f"MEGA : {mega.total_cycles / 1e3:9.1f} kcycles, "
          f"{mega.dram_mb:6.2f} MB DRAM, {mega.energy.total_mj:.4f} mJ")
    print(f"GCNAX: {gcnax.total_cycles / 1e3:9.1f} kcycles, "
          f"{gcnax.dram_mb:6.2f} MB DRAM, {gcnax.energy.total_mj:.4f} mJ")
    print(f"speedup {gcnax.total_cycles / mega.total_cycles:.1f}x, "
          f"DRAM reduction {gcnax.traffic.transferred_bytes / mega.traffic.transferred_bytes:.1f}x, "
          f"energy saving {gcnax.energy.total_pj / mega.energy.total_pj:.1f}x")


if __name__ == "__main__":
    main()
