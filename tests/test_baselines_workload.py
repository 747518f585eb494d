"""Tests for the baseline accelerator models and workload builders."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import BASELINE_PRESETS, build_baseline
from repro.graphs import load_dataset
from repro.mega import MegaModel
from repro.sim.workload import (
    build_workload,
    degree_ranks,
    synthesize_degree_aware_bits,
    workload_from_quant_run,
)


@pytest.fixture(scope="module")
def tiny():
    return load_dataset("cora", scale="tiny")


@pytest.fixture(scope="module")
def wl32(tiny):
    return build_workload("cora", "gcn", "fp32", graph=tiny)


@pytest.fixture(scope="module")
def wl_mixed(tiny):
    return build_workload("cora", "gcn", "degree-aware", graph=tiny)


class TestWorkloadBuilder:
    def test_two_layers(self, wl32):
        assert len(wl32.layers) == 2
        assert wl32.layers[0].out_dim == 128
        assert wl32.layers[1].in_dim == 128

    def test_fp32_bits(self, wl32):
        assert (wl32.layers[0].input_bits == 32).all()
        assert wl32.compression_ratio() == pytest.approx(1.0)

    def test_int8_bits(self, tiny):
        wl = build_workload("cora", "gcn", "int8", graph=tiny)
        assert (wl.layers[0].input_bits == 8).all()
        assert wl.compression_ratio() == pytest.approx(4.0)

    def test_degree_aware_bits_in_range(self, wl_mixed):
        bits = wl_mixed.layers[0].input_bits
        assert bits.min() >= 2 and bits.max() <= 8

    def test_degree_aware_cr_above_8bit(self, wl_mixed):
        assert wl_mixed.compression_ratio() > 4.0

    def test_unknown_precision_raises(self, tiny):
        with pytest.raises(ValueError):
            build_workload("cora", "gcn", "fp16", graph=tiny)

    def test_graphsage_sampling_caps_edges(self):
        g = load_dataset("reddit", scale="tiny")
        wl = build_workload("reddit", "graphsage", "fp32", graph=g)
        degrees = np.asarray(wl.adjacency.astype(bool).sum(axis=1)).reshape(-1)
        assert degrees.max() <= 25

    def test_workload_from_quant_run(self, tiny):
        bits = np.full(tiny.num_nodes, 3, dtype=np.int64)
        wl = workload_from_quant_run(tiny, "gcn", bits)
        assert wl.layers[0].in_dim == tiny.feature_dim
        assert (wl.layers[0].input_bits == 3).all()
        # An FP32 baseline on the same graph keeps the graph's own
        # features (the quickstart's GCNAX workload).
        bits32 = np.full(tiny.num_nodes, 32, dtype=np.int64)
        wl32 = workload_from_quant_run(tiny, "gcn", bits32, precision="fp32")
        layer = wl32.layers[0]
        assert layer.in_dim == tiny.feature_dim
        assert (layer.input_bits == 32).all() and layer.weight_bits == 32


class TestSynthesizedBits:
    def test_average_close_to_target(self):
        degrees = np.random.default_rng(0).integers(1, 100, size=5000)
        bits = synthesize_degree_aware_bits(degree_ranks(degrees), 3.0)
        assert bits.mean() == pytest.approx(3.0, abs=0.4)

    def test_monotone_in_degree(self):
        degrees = np.arange(1, 1001)
        bits = synthesize_degree_aware_bits(degree_ranks(degrees), 3.0)
        assert (np.diff(bits) >= 0).all()

    def test_power_law_majority_at_min(self):
        degrees = np.random.default_rng(0).integers(1, 100, size=5000)
        bits = synthesize_degree_aware_bits(degree_ranks(degrees), 2.5)
        assert (bits == 2).mean() > 0.5

    def test_target_at_min_all_min(self):
        bits = synthesize_degree_aware_bits(degree_ranks(np.arange(1, 100)), 2.0)
        assert (bits == 2).all()


class TestBaselinePresets:
    def test_all_presets_instantiate(self):
        for name in BASELINE_PRESETS:
            model = build_baseline(name)
            assert model.name == name

    def test_unknown_baseline_raises(self):
        with pytest.raises(ValueError):
            build_baseline("tpu")

    def test_table5_properties(self):
        assert BASELINE_PRESETS["hygcn"].execution_order == "AXW"
        assert not BASELINE_PRESETS["hygcn"].sparsity_combination
        assert BASELINE_PRESETS["grow"].locality == "metis"
        assert BASELINE_PRESETS["sgcn"].storage == "sgcn"

    def test_8bit_variants(self):
        assert BASELINE_PRESETS["hygcn-8bit"].feature_bits == 8
        assert BASELINE_PRESETS["gcnax-8bit"].feature_bits == 8

    def test_original_configs_table7(self):
        assert BASELINE_PRESETS["gcnax-original"].total_buffer_kb == 580.0
        assert BASELINE_PRESETS["grow-original"].total_buffer_kb == 538.0


class TestBaselineBehavior:
    def test_mega_fastest(self, wl32, wl_mixed):
        mega = MegaModel().simulate(wl_mixed)
        for name in ("hygcn", "gcnax", "grow", "sgcn"):
            base = build_baseline(name).simulate(wl32)
            assert base.total_cycles > mega.total_cycles, name

    def test_mega_least_dram(self, wl32, wl_mixed):
        mega = MegaModel().simulate(wl_mixed)
        for name in ("hygcn", "gcnax", "grow", "sgcn"):
            base = build_baseline(name).simulate(wl32)
            assert base.traffic.transferred_bytes > mega.traffic.transferred_bytes

    def test_hygcn_has_most_dram(self, wl32):
        reports = {name: build_baseline(name).simulate(wl32)
                   for name in ("hygcn", "gcnax", "grow", "sgcn")}
        hygcn = reports.pop("hygcn")
        for name, rep in reports.items():
            assert hygcn.traffic.transferred_bytes > rep.traffic.transferred_bytes

    def test_axw_order_costs_more_macs(self, wl32):
        hygcn = build_baseline("hygcn").simulate(wl32)
        hygcn_c = build_baseline("hygcn-c").simulate(wl32)
        macs = lambda r: sum(c.details["macs"] for c in r.layer_costs)
        assert macs(hygcn) > macs(hygcn_c)

    def test_8bit_less_traffic_than_fp32(self, tiny, wl32):
        wl8 = build_workload("cora", "gcn", "int8", graph=tiny)
        fp = build_baseline("gcnax").simulate(wl32)
        int8 = build_baseline("gcnax-8bit").simulate(wl8)
        assert int8.traffic.transferred_bytes < fp.traffic.transferred_bytes

    def test_original_config_slower_than_matched(self, wl32):
        matched = build_baseline("gcnax").simulate(wl32)
        original = build_baseline("gcnax-original").simulate(wl32)
        assert original.total_cycles >= matched.total_cycles

    def test_grow_dram_leq_gcnax(self, wl32):
        gcnax = build_baseline("gcnax").simulate(wl32)
        grow = build_baseline("grow").simulate(wl32)
        assert grow.traffic.transferred_bytes <= gcnax.traffic.transferred_bytes

    def test_invalid_storage_raises(self, wl32):
        from repro.baselines import GenericAcceleratorModel

        cfg = replace(BASELINE_PRESETS["gcnax"], name="bad", storage="tar")
        with pytest.raises(ValueError):
            GenericAcceleratorModel(cfg).simulate(wl32)
