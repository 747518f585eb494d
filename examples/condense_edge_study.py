"""Condense-Edge walkthrough (Sec. V-E, Algorithm 1, Fig. 6/12/13).

1. Partition a citation graph with the built-in METIS-style partitioner.
2. Run the cycle-faithful Condense Unit simulation (eID FIFOs, Sparse
   Buffer pointers) and show the reordered layout.
3. Compare trace-level DRAM transactions with and without condensing.
4. Print the Fig. 6-style traffic table for all scheduling strategies.

Run:  python examples/condense_edge_study.py [dataset]
"""

import sys

import numpy as np

from repro.eval import print_table
from repro.graphs import load_dataset, partition_graph
from repro.mega import CondenseUnit, count_cross_accesses
from repro.report import run_experiment


def main(dataset: str = "cora") -> None:
    graph = load_dataset(dataset, scale="tiny")
    print(f"graph: {graph.summary()}")

    result = partition_graph(graph.adjacency, 4, seed=0)
    print(f"\npartitioned into 4 subgraphs: edge cut {result.edge_cut} "
          f"of {graph.num_edges} edges, balance {result.balance:.2f}")

    unit = CondenseUnit(graph.adjacency, result.parts)
    layout = unit.run()
    print(f"\nCondense Unit: {unit.matches} eID matches over "
          f"{unit.comparisons} comparisons")
    for part, nodes in layout.items():
        preview = ", ".join(map(str, nodes[:8]))
        more = "..." if len(nodes) > 8 else ""
        print(f"  Sparse Buffer region {part}: {len(nodes)} nodes "
              f"[{preview}{more}]")

    feat_bytes = 64  # 128-dim features at 4 bits
    plain = count_cross_accesses(graph.adjacency, result.parts, feat_bytes,
                                 condensed=False)
    condensed = count_cross_accesses(graph.adjacency, result.parts, feat_bytes,
                                     condensed=True)
    print(f"\ntrace-level sparse-connection DRAM transactions: "
          f"{plain} -> {condensed} ({plain / max(condensed, 1):.1f}x fewer)")

    print()
    study = run_experiment("locality_study", dataset=dataset).value
    rows = [[s, v["internal_mb"], v["cross_mb"], v["total_mb"]]
            for s, v in study.items()]
    print_table(rows, ["strategy", "in_subgraphs_MB",
                       "sparse_connections_MB", "total_MB"],
                title=f"Fig. 6-style traffic on sim-scale {dataset}",
                float_format="{:.3f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "cora")
