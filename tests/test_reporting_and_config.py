"""Fast tests for reporting helpers, configs and workload accessors."""

import numpy as np
import pytest

from repro.eval.reporting import format_table, geomean
from repro.formats import PackageConfig
from repro.graphs import load_dataset
from repro.mega import MegaConfig, MegaModel
from repro.paper_data import FIG5_HIDDEN_DENSITY, PAPER_AVERAGE_BITS
from repro.sim import DramModel, DramTraffic
from repro.sim.accelerator import LayerCost, SimReport
from repro.sim.workload import build_workload


class TestReportingHelpers:
    def test_geomean_matches_numpy(self):
        vals = [1.5, 2.5, 9.0]
        assert geomean(vals) == pytest.approx(float(np.exp(np.mean(np.log(vals)))))

    def test_geomean_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_format_table_float_format(self):
        txt = format_table([[1.23456]], ["v"], float_format="{:.1f}")
        assert "1.2" in txt and "1.23" not in txt

    def test_format_table_header_separator(self):
        txt = format_table([[1]], ["col"])
        assert txt.splitlines()[1].startswith("-")


class TestPaperConstantTables:
    def test_fig5_covers_all_models_and_datasets(self):
        datasets = {"cora", "citeseer", "pubmed", "nell", "reddit"}
        for model in ("gcn", "gin", "graphsage"):
            assert set(FIG5_HIDDEN_DENSITY[model]) == datasets
            for v in FIG5_HIDDEN_DENSITY[model].values():
                assert 0.0 < v <= 1.0

    def test_paper_average_bits_in_range(self):
        for model, row in PAPER_AVERAGE_BITS.items():
            for v in row.values():
                assert 1.0 <= v <= 8.0


class TestConfigs:
    def test_mega_custom_package_config_threads_through(self):
        cfg = MegaConfig(package=PackageConfig(32, 64, 96))
        model = MegaModel(config=cfg)
        assert model._format().config.lengths == (32, 64, 96)

    def test_mega_config_frozen(self):
        cfg = MegaConfig()
        with pytest.raises(Exception):
            cfg.aggregation_units = 512

    def test_buffer_totals_match_fields(self):
        cfg = MegaConfig(input_buffer_kb=32.0)
        assert cfg.total_buffer_kb == pytest.approx(392.0 - 32.0)


class TestReports:
    def _report(self, compute, dram_cycles):
        return SimReport(
            accelerator="x", workload="w", compute_cycles=compute,
            dram_cycles=dram_cycles, total_cycles=compute + dram_cycles,
            stall_cycles=dram_cycles, traffic=DramTraffic(1, 128.0, 100.0),
            energy=None)

    def test_stall_fraction(self):
        rep = self._report(80, 20)
        assert rep.stall_fraction == pytest.approx(0.2)

    def test_seconds_at_1ghz(self):
        rep = self._report(1e9, 0)
        assert rep.seconds == pytest.approx(1.0)

    def test_layer_cost_pipelined_max(self):
        cost = LayerCost(100, 60, DramTraffic(), 0.0, 0.0)
        assert cost.compute_cycles == 100

    def test_dram_traffic_utilization(self):
        t = DramTraffic(1, 128.0, 64.0)
        assert t.utilization == pytest.approx(0.5)
        assert t.total_mb == pytest.approx(128.0 / 2 ** 20)


class TestWorkloadAccessors:
    @pytest.fixture(scope="class")
    def workload(self):
        graph = load_dataset("cora", scale="tiny")
        return build_workload("cora", "gcn", "degree-aware", graph=graph)

    def test_degrees_match_adjacency(self, workload):
        degrees = np.asarray(workload.adjacency.astype(bool).sum(axis=1))
        assert degrees.sum() == workload.num_edges

    def test_layer_density(self, workload):
        layer = workload.layers[0]
        assert 0 < layer.input_density < 1

    def test_average_feature_bits_weighted(self, workload):
        avg = workload.average_feature_bits()
        assert 2.0 <= avg <= 8.0
        assert workload.compression_ratio() == pytest.approx(32.0 / avg)
