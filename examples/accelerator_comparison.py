"""Accelerator comparison (Fig. 14/16/17 in miniature).

Simulates MEGA and the four baseline accelerators on a set of
(dataset, model) workloads and prints speedup, DRAM-reduction and
energy-saving tables like the paper's evaluation section.

Run:  python examples/accelerator_comparison.py [--full]
      --full adds the NELL/Reddit-scale workloads (slower).
"""

import sys

from repro.eval import PAPER_WORKLOADS, QUICK_WORKLOADS, print_table
from repro.report import run_experiment

ACCELERATORS = ("hygcn", "gcnax", "grow", "sgcn")


def show(table, title):
    rows = [[key] + [row[a] for a in ACCELERATORS]
            for key, row in table.items()]
    print_table(rows, ["workload"] + list(ACCELERATORS), title=title)


def main() -> None:
    workloads = PAPER_WORKLOADS if "--full" in sys.argv else QUICK_WORKLOADS
    print(f"simulating {len(workloads)} workloads x "
          f"{len(ACCELERATORS) + 1} accelerators ...")
    params = dict(workloads=workloads, accelerators=ACCELERATORS)
    show(run_experiment("speedup_table", **params).value,
         "MEGA speedup over baselines (Fig. 14)")
    show(run_experiment("dram_table", **params).value,
         "DRAM access reduction (Fig. 16)")
    show(run_experiment("energy_table", **params).value,
         "Energy savings (Fig. 17)")
    print("\npaper geomeans for reference: speedup 38.3/7.1/4.0/3.6x, "
          "DRAM 108.1/10.5/8.4/7.3x, energy 47.6/7.2/5.4/4.5x")


if __name__ == "__main__":
    main()
