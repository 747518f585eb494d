"""Tests for the experiment harness (structure + paper-shape assertions)."""

import numpy as np
import pytest

from repro.eval import format_table, geomean, simulate
from repro.report import run_experiment

WORKLOADS = (("cora", "gcn"), ("citeseer", "gcn"))


class TestReporting:
    def test_geomean_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_geomean_empty_nan(self):
        assert np.isnan(geomean([]))

    def test_format_table_aligns(self):
        txt = format_table([[1.0, "a"], [2.0, "bb"]], ["x", "y"])
        lines = txt.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1


class TestTables:
    def test_speedup_table_mega_wins(self):
        table = run_experiment("speedup_table", workloads=WORKLOADS,
                               accelerators=("hygcn", "gcnax")).value
        for row_key, row in table.items():
            for name, speedup in row.items():
                assert speedup > 1.0, (row_key, name)

    def test_geomean_row_present(self):
        table = run_experiment("speedup_table", workloads=WORKLOADS,
                               accelerators=("gcnax",)).value
        assert "geomean" in table

    def test_stall_ordering(self):
        """Fig. 20(a): MEGA stalls less than HyGCN."""
        table = run_experiment("stall_table", datasets=("cora",)).value
        assert table["cora"]["mega"] <= table["cora"]["hygcn"]

    def test_simulate_memoized(self):
        a = simulate("gcnax", "cora", "gcn")
        b = simulate("gcnax", "cora", "gcn")
        assert a is b


class TestAblation:
    def test_fig19_ordering(self):
        steps = run_experiment("ablation_fig19", dataset="cora",
                               model="gcn").value
        cycles = [steps[k].total_cycles for k in
                  ("hygcn-c", "quant+bitmap", "+adaptive-package", "+condense-edge")]
        # Each technique may only help (or be neutral).
        assert cycles[0] > cycles[1] >= cycles[2] >= cycles[3]
        dram = [steps[k].traffic.transferred_bytes for k in
                ("hygcn-c", "quant+bitmap", "+adaptive-package", "+condense-edge")]
        assert dram[0] > dram[1] >= dram[2] >= dram[3]


class TestStudies:
    def test_locality_study_ordering(self):
        """Fig. 6 / 20(b): condense has the least sparse-connection DRAM."""
        out = run_experiment("locality_study", dataset="cora").value
        assert out["condense"]["cross_mb"] <= out["gcod"]["cross_mb"]
        assert out["gcod"]["cross_mb"] <= out["metis"]["cross_mb"]
        assert set(out) == {"naive", "metis", "gcod", "condense"}

    def test_locality_study_single_part_is_one_tile(self):
        """``num_parts=1`` tiles the partitioned strategies as one
        subgraph (no sparse connections); ``naive`` keeps its contiguous
        tiles.  The rows are the ones the study has always written."""
        one = run_experiment("locality_study", num_parts=1).value
        assert one["naive"] == run_experiment("locality_study").value["naive"]
        for strategy in ("metis", "gcod", "condense"):
            assert one[strategy] == {"internal_mb": 0.3253173828125,
                                     "cross_mb": 0.0,
                                     "total_mb": 0.3253173828125}

    def test_package_length_study_normalized(self):
        out = run_experiment("package_length_study",
                             datasets=("cora",)).value
        values = list(out["cora"].values())
        assert min(values) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in values)

    def test_package_length_study_rejects_headerless_lengths(self):
        """Lengths arrive as request parameters: a level that cannot
        hold the header is refused, not ranked."""
        with pytest.raises(ValueError, match="short=2"):
            run_experiment("package_length_study", datasets=("cora",),
                           settings=((2, 3, 4), (64, 128, 192)))

    def test_cr_sensitivity_monotone(self):
        """Fig. 22: speedup grows with compression ratio."""
        out = run_experiment("cr_sensitivity", dataset="cora",
                             models=("gcn",), targets=(8.0, 4.0, 2.5)).value
        speedups = list(out["gcn"].values())
        assert speedups[-1] >= speedups[0]

    def test_original_config_mega_wins(self):
        out = run_experiment("original_config_comparison",
                             datasets=("cora",)).value
        assert out["cora"]["mega"] > out["cora"]["grow"] >= 0.5
        assert out["cora"]["gcnax"] == 1.0

    def test_energy_breakdown_hygcn_dominated_by_dram(self):
        out = run_experiment("energy_breakdown_fig18",
                             datasets=("cora",)).value
        assert out["cora"]["hygcn"]["dram"] > 1.0
