"""Tests for the MEGA accelerator: functional datapath, Condense-Edge,
configuration and the performance model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import load_dataset
from repro.graphs.partition import partition_graph
from repro.mega import (
    AREA_POWER_TABLE,
    CondenseUnit,
    MegaConfig,
    MegaModel,
    area_power_breakdown,
    bit_serial_matmul,
    choose_num_parts,
    count_cross_accesses,
    cpe_group_trace,
    decode_and_combine,
    quantized_layer_forward,
    sparse_connection_sources,
)
from repro.sim.workload import build_workload


@pytest.fixture(scope="module")
def tiny():
    return load_dataset("cora", scale="tiny")


@pytest.fixture(scope="module")
def tiny_workload(tiny):
    return build_workload("cora", "gcn", "degree-aware", graph=tiny)


class TestBitSerial:
    def test_matches_integer_matmul(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 15, size=(10, 8))
        w = rng.integers(-7, 8, size=(8, 5))
        bits = np.full(10, 4)
        np.testing.assert_array_equal(bit_serial_matmul(x, w, bits), x @ w)

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_property_bit_serial_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, f_in, f_out = rng.integers(1, 12, size=3)
        bits = rng.choice([2, 3, 4, 8], size=n)
        x = np.stack([rng.integers(0, 2 ** b, size=f_in) for b in bits])
        w = rng.integers(-7, 8, size=(f_in, f_out))
        np.testing.assert_array_equal(bit_serial_matmul(x, w, bits), x @ w)

    def test_mixed_bitwidths(self):
        x = np.array([[3, 1], [255, 128]])
        w = np.array([[2], [1]])
        bits = np.array([2, 8])
        np.testing.assert_array_equal(bit_serial_matmul(x, w, bits), x @ w)

    def test_signed_magnitudes(self):
        x = np.array([[-3, 2]])
        w = np.array([[1], [4]])
        np.testing.assert_array_equal(
            bit_serial_matmul(x, w, np.array([4])), x @ w)


class TestCpeTrace:
    def test_fig11_example_output(self):
        values = np.array([2, 3])          # two non-zero 2-bit features
        weights = np.array([[1, 2], [3, 4]])
        trace = cpe_group_trace(values, weights, bitwidth=2)
        np.testing.assert_array_equal(trace["output"], values @ weights)

    def test_cycle_count_equals_bitwidth(self):
        trace = cpe_group_trace(np.array([5, 7]), np.array([[1, 1], [1, 1]]), 3)
        assert len(trace["cycles"]) == 3

    def test_shifts_increase(self):
        trace = cpe_group_trace(np.array([3]), np.array([[2, 2]]), 2)
        assert [c["shift"] for c in trace["cycles"]] == [0, 1]


class TestQuantizedLayer:
    def test_eq3_rescale_bounds_error(self, tiny):
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(size=(20, 16)))
        w = rng.normal(size=(16, 8))
        scales = np.full(20, x.max() / 255)
        bits = np.full(20, 8)
        wscales = np.abs(w).max(axis=0) / 7
        _, out = quantized_layer_forward(x, w, scales, bits, wscales, 4)
        rel = np.abs(out - x @ w).max() / np.abs(x @ w).max()
        assert rel < 0.2

    def test_aggregation_applied(self, tiny):
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(size=(tiny.num_nodes, 8)))
        w = rng.normal(size=(8, 4))
        scales = np.full(tiny.num_nodes, x.max() / 255)
        bits = np.full(tiny.num_nodes, 8)
        wscales = np.abs(w).max(axis=0) / 7
        adj = tiny.normalized_adjacency("gcn")
        _, out = quantized_layer_forward(x, w, scales, bits, wscales, 4,
                                         adjacency=adj)
        assert out.shape == (tiny.num_nodes, 4)

    def test_decode_and_combine_matches_direct(self):
        rng = np.random.default_rng(2)
        bits = rng.choice([2, 4, 8], size=12)
        x = np.stack([rng.integers(0, 2 ** b, size=6) for b in bits])
        w = rng.integers(-7, 8, size=(6, 3))
        np.testing.assert_array_equal(decode_and_combine(x, w, bits), x @ w)


class TestCondenseUnit:
    @pytest.fixture(scope="class")
    def parts_setup(self, request):
        graph = load_dataset("citeseer", scale="tiny")
        parts = partition_graph(graph.adjacency, 4, seed=0).parts
        return graph, parts

    def test_step_by_step_matches_vectorized(self, parts_setup):
        graph, parts = parts_setup
        unit = CondenseUnit(graph.adjacency, parts)
        buffer = unit.run()
        layout = sparse_connection_sources(graph.adjacency, parts)
        for p in layout:
            assert buffer[p] == layout[p].tolist()

    def test_all_eids_consumed(self, parts_setup):
        graph, parts = parts_setup
        unit = CondenseUnit(graph.adjacency, parts)
        unit.run()
        assert unit.remaining_eids() == 0

    def test_match_count_equals_unique_pairs(self, parts_setup):
        graph, parts = parts_setup
        unit = CondenseUnit(graph.adjacency, parts)
        unit.run()
        layout = sparse_connection_sources(graph.adjacency, parts)
        assert unit.matches == sum(len(v) for v in layout.values())

    def test_sparse_buffer_sorted_ascending(self, parts_setup):
        graph, parts = parts_setup
        buffer = CondenseUnit(graph.adjacency, parts).run()
        for nodes in buffer.values():
            assert nodes == sorted(nodes)

    def test_source_dedup_within_subgraph(self, parts_setup):
        graph, parts = parts_setup
        buffer = CondenseUnit(graph.adjacency, parts).run()
        for nodes in buffer.values():
            assert len(nodes) == len(set(nodes))

    def test_trace_accesses_condensed_fewer(self, parts_setup):
        graph, parts = parts_setup
        plain = count_cross_accesses(graph.adjacency, parts, 64, condensed=False)
        condensed = count_cross_accesses(graph.adjacency, parts, 64, condensed=True)
        assert condensed < plain


class TestConfig:
    def test_total_bses_paper_value(self):
        assert MegaConfig().total_bses == 4 * 8 * 32

    def test_buffer_total_392kb(self):
        assert MegaConfig().total_buffer_kb == 392.0

    def test_area_power_breakdown_totals(self):
        table = area_power_breakdown()
        assert table["total"]["area_mm2"] == pytest.approx(1.869, abs=0.01)
        assert table["total"]["power_mw"] == pytest.approx(194.98, abs=0.1)

    def test_buffers_dominate_area(self):
        table = area_power_breakdown()
        assert table["buffer_total"]["area_mm2"] > table["processing_total"]["area_mm2"]

    def test_choose_num_parts(self):
        # 128 KB buffer, 128-dim 16-bit partial sums -> 512 nodes/part.
        assert choose_num_parts(1024, 128, 128 * 1024) == 2


class TestMegaModel:
    def test_report_fields(self, tiny_workload):
        report = MegaModel().simulate(tiny_workload)
        assert report.total_cycles > 0
        assert report.compute_cycles > 0
        assert report.traffic.transferred_bytes > 0
        assert report.energy.total_pj > 0
        assert len(report.layer_costs) == 2

    def test_bitmap_storage_slower_or_equal(self, tiny_workload):
        full = MegaModel().simulate(tiny_workload)
        bitmap = MegaModel(storage="bitmap").simulate(tiny_workload)
        assert bitmap.compute_cycles >= full.compute_cycles
        assert bitmap.traffic.transferred_bytes >= full.traffic.transferred_bytes

    def test_condense_reduces_dram(self):
        workload = build_workload("cora", "gcn", "degree-aware")
        with_c = MegaModel(condense=True).simulate(workload)
        without = MegaModel(condense=False).simulate(workload)
        assert with_c.traffic.transferred_bytes <= without.traffic.transferred_bytes

    def test_invalid_storage_raises(self):
        with pytest.raises(ValueError):
            MegaModel(storage="zip")

    def test_quantized_beats_fp32_traffic(self, tiny):
        mixed = build_workload("cora", "gcn", "degree-aware", graph=tiny)
        flat8 = build_workload("cora", "gcn", "int8", graph=tiny)
        r_mixed = MegaModel().simulate(mixed)
        r_8 = MegaModel().simulate(flat8)
        assert r_mixed.traffic.transferred_bytes < r_8.traffic.transferred_bytes

    def test_stall_fraction_bounded(self, tiny_workload):
        report = MegaModel().simulate(tiny_workload)
        assert 0.0 <= report.stall_fraction < 1.0

    def test_speedup_helpers(self, tiny_workload):
        a = MegaModel().simulate(tiny_workload)
        b = MegaModel(storage="bitmap").simulate(tiny_workload)
        assert a.speedup_over(b) >= 1.0
        assert b.speedup_over(a) <= 1.0
