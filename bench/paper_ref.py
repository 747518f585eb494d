"""Reference numbers from the paper that the benchmark's fidelity
figures are measured against.

Source: Zhu et al., "MEGA: A Memory-Efficient GNN Accelerator Exploiting
Degree-Aware Mixed-Precision Quantization", HPCA 2024, Sec. VI-C1 and
Fig. 14 — MEGA's geometric-mean speedup over each baseline across the
evaluated workloads (quoted in ``benchmarks/test_fig14_speedup.py``).

These belong in ``repro.paper_data``; once the library carries them
there (ROADMAP item 1), this module should read them from it.
"""

FIG14_GEOMEAN_SPEEDUP = {
    "hygcn": 38.3,
    "gcnax": 7.1,
    "grow": 4.0,
    "sgcn": 3.6,
}
