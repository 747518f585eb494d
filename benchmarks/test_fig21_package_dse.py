"""Fig. 21: design-space exploration of the Adaptive-Package length
levels (paper conclusion: (64, 128, 192) is the best compromise across
datasets, even though each dataset has its own optimum)."""

from conftest import once

from repro.eval import print_table
from repro.eval.reporting import geomean
from repro.report import run_experiment


SETTINGS = ((16, 24, 32), (64, 128, 192), (160, 192, 296),
            (192, 296, 400), (400, 512, 800))


def test_fig21_package_length_dse(benchmark):
    out = once(benchmark, run_experiment, "package_length_study",
               datasets=("cora", "citeseer", "pubmed"),
               settings=SETTINGS).value
    rows = []
    for setting in SETTINGS:
        rows.append([str(setting)] + [out[ds][setting] for ds in out])
    print_table(rows, ["(short,medium,long)"] + list(out),
                title="Fig. 21 — DRAM vs package lengths (1.0 = per-dataset optimum)",
                float_format="{:.3f}")

    # Every dataset's optimum is one of the settings (normalization = 1).
    for ds, results in out.items():
        assert min(results.values()) == 1.0
    # The paper's chosen (64,128,192) is within 10% of optimal everywhere.
    chosen = [out[ds][(64, 128, 192)] for ds in out]
    assert max(chosen) < 1.10
    # And it has the best cross-dataset geomean among the settings.
    geomeans = {s: geomean(out[ds][s] for ds in out) for s in SETTINGS}
    assert geomeans[(64, 128, 192)] == min(geomeans.values())
