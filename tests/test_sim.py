"""Tests for the simulation substrate: DRAM, buffers, energy, locality."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.baselines import build_baseline
from repro.graphs import load_dataset
from repro.graphs.partition import partition_graph
from repro.mega import MegaConfig, MegaModel
from repro.perf.cache import cache_stats, cached_load_dataset, clear_all_caches
from repro.sim import (
    DEFAULT_ENERGY,
    DramConfig,
    DramModel,
    DramTraffic,
    EnergyBreakdown,
    EnergyConstants,
)
from repro.sim.locality import (
    LocalityStructure,
    aggregation_locality_traffic,
    cross_subgraph_pairs,
    locality_structure,
)
from repro.sim.workload import build_workload

# MEGA's Table IV combination buffer and Sparse Buffer, in bytes.
MEGA_BUFFERS = dict(combination_buffer_bytes=96 * 1024,
                    sparse_buffer_bytes=32 * 1024)


@pytest.fixture(scope="module")
def cora_reports():
    """Simulate MEGA (degree-aware) or HyGCN (fp32) on the sim-scale
    cora GCN, optionally with other energy constants or MEGA config."""
    workloads = {"mega": build_workload("cora", "gcn"),
                 "hygcn": build_workload("cora", "gcn", "fp32")}

    def simulate(name, energy=DEFAULT_ENERGY, config=None):
        model = MegaModel(config) if name == "mega" else build_baseline(name)
        model.energy = energy
        return model.simulate(workloads[name])

    return simulate


class TestDram:
    def test_sequential_rounds_up_once(self):
        dram = DramModel()
        t = dram.sequential_access(130)
        assert t.transactions == 2
        assert t.transferred_bytes == 256
        assert t.useful_bytes == 130

    def test_random_pays_per_access(self):
        dram = DramModel()
        t = dram.random_access(10, 64)
        assert t.transactions == 10
        assert t.utilization == pytest.approx(0.5)

    def test_random_large_feature_multiple_transactions(self):
        dram = DramModel()
        t = dram.random_access(3, 512)
        assert t.transactions == 12

    def test_cycles_at_bandwidth(self):
        dram = DramModel(DramConfig(bandwidth_gb_s=256.0))
        t = dram.sequential_access(256 * 100)
        assert dram.cycles(t) == pytest.approx(100.0)

    def test_energy_scales_with_bits(self, cora_reports):
        report = cora_reports("hygcn")
        assert report.energy.dram_pj == pytest.approx(
            report.traffic.transferred_bytes * 8 * DEFAULT_ENERGY.dram_pj_per_bit)

    def test_traffic_addition_merges_purposes(self):
        dram = DramModel()
        a = dram.sequential_access(128, purpose="x")
        b = dram.sequential_access(128, purpose="x")
        c = a + b
        assert c.by_purpose["x"] == 256
        assert c.transactions == 2

    def test_zero_bytes(self):
        t = DramModel().sequential_access(0)
        assert t.transactions == 0


class TestBuffers:
    def test_access_energy_positive(self, cora_reports):
        """SRAM traffic is half reads, half writes, each at its own
        ``EnergyConstants`` cost."""
        report = cora_reports("mega")
        moved = sum(c.sram_bytes_moved for c in report.layer_costs)
        assert report.energy.sram_pj > 0
        assert report.energy.sram_pj == pytest.approx(
            moved * 0.5 * 8 * (DEFAULT_ENERGY.sram_read_pj_per_bit
                               + DEFAULT_ENERGY.sram_write_pj_per_bit))

    def test_sparse_buffer_size_moves_mega_dram(self, cora_reports):
        """Condense-Edge spills what the Sparse Buffer cannot hold, so a
        smaller ``MegaConfig.sparse_buffer_kb`` moves more DRAM bytes."""
        default = cora_reports("mega")
        small = cora_reports("mega", config=MegaConfig(sparse_buffer_kb=1.0))
        assert (small.traffic.transferred_bytes
                > default.traffic.transferred_bytes)


class TestEnergyConstants:
    @pytest.mark.parametrize("name", [f.name for f in fields(EnergyConstants)])
    def test_every_constant_moves_energy(self, cora_reports, name):
        """Doubling any constant, set as the model's ``energy``, moves
        the energy of MEGA or HyGCN."""
        doubled = replace(DEFAULT_ENERGY,
                          **{name: getattr(DEFAULT_ENERGY, name) * 2})

        def energies(energy):
            return [cora_reports(accelerator, energy).energy.total_pj
                    for accelerator in ("mega", "hygcn")]

        assert energies(doubled) != energies(DEFAULT_ENERGY)


class TestEnergyBreakdown:
    def test_total(self):
        e = EnergyBreakdown(1, 2, 3, 4)
        assert e.total_pj == 10

    def test_add(self):
        e = EnergyBreakdown(1, 1, 1, 1) + EnergyBreakdown(2, 2, 2, 2)
        assert e.dram_pj == 3

    def test_fractions_sum_to_one(self):
        e = EnergyBreakdown(1, 2, 3, 4)
        assert sum(e.fractions().values()) == pytest.approx(1.0)

    def test_int_mac_energy_below_fp32(self):
        c = EnergyConstants()
        assert c.int_mac_pj(4, 4) < c.fp32_mac_pj


class TestLocality:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = load_dataset("cora", scale="tiny")
        parts = partition_graph(graph.adjacency, 4, seed=0).parts
        return graph, parts, DramModel()

    def test_unknown_strategy_raises(self, setup):
        graph, _, dram = setup
        with pytest.raises(ValueError):
            aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="quantum", **MEGA_BUFFERS)

    def test_condense_cross_leq_gcod_leq_metis(self, setup):
        """The Fig. 20(b) ordering: condense < gcod <= metis."""
        graph, _, dram = setup
        results = {}
        for strategy in ("metis", "gcod", "condense"):
            t = aggregation_locality_traffic(
                graph.adjacency, 64, dram, strategy=strategy, num_parts=4,
                **MEGA_BUFFERS)
            results[strategy] = t.cross.transferred_bytes
        assert results["gcod"] <= results["metis"]
        assert results["condense"] <= results["gcod"]

    def test_condense_full_utilization(self, setup):
        graph, _, dram = setup
        # Force DRAM spilling (sparse buffer disabled) to observe the
        # contiguous-read utilization of the reordered features.
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="condense", num_parts=4,
                                         combination_buffer_bytes=96 * 1024,
                                         sparse_buffer_bytes=0)
        assert t.cross.utilization > 0.45  # contiguous reads

    def test_condense_small_graph_stays_on_chip(self, setup):
        graph, _, dram = setup
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="condense", num_parts=4,
                                         **MEGA_BUFFERS)
        # The tiny graph's cross features fit the 32 KB Sparse Buffer.
        assert t.cross.transferred_bytes == 0

    def test_metis_half_utilization_small_features(self, setup):
        graph, _, dram = setup
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="metis", num_parts=4,
                                         **MEGA_BUFFERS)
        assert t.cross.utilization == pytest.approx(0.5)

    def test_naive_uses_contiguous_tiles(self, setup):
        graph, _, dram = setup
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="naive", buffer_nodes=32,
                                         **MEGA_BUFFERS)
        assert t.cross.transferred_bytes > 0
        assert t.reorder_writes.transferred_bytes == 0

    def test_condense_accounts_reorder_writes(self, setup):
        graph, _, dram = setup
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="condense", num_parts=4,
                                         combination_buffer_bytes=96 * 1024,
                                         sparse_buffer_bytes=0)
        assert t.reorder_writes.useful_bytes == t.cross.useful_bytes

    def test_cross_pairs_counts(self, setup):
        graph, parts, _ = setup
        pairs, edges, sources = cross_subgraph_pairs(graph.adjacency, parts)
        assert pairs <= edges
        assert sources <= pairs

    def test_single_part_no_cross(self, setup):
        graph, _, dram = setup
        t = aggregation_locality_traffic(graph.adjacency, 64, dram,
                                         strategy="condense", num_parts=1,
                                         **MEGA_BUFFERS)
        assert t.cross.transferred_bytes == 0


class TestLocalityCache:
    """``locality_structure`` builds each (graph, tiling) once per process."""

    def test_simulate_builds_each_structure_once(self, monkeypatch):
        built = []
        init = LocalityStructure.__init__

        def counting_init(self, adjacency, tiles):
            built.append(len(tiles))
            init(self, adjacency, tiles)

        monkeypatch.setattr(LocalityStructure, "__init__", counting_init)
        clear_all_caches()
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        model = MegaModel()
        first = None
        for target in (3.0, 4.0, 5.0):
            model.simulate(build_workload("cora", "gcn", seed=0, graph=graph,
                                          target_average_bits=target))
            first = len(built) if first is None else first
        assert first >= 1
        assert len(built) == first  # later targets reuse every structure

    def test_one_structure_per_tiling(self):
        adjacency = load_dataset("cora", scale="tiny").adjacency
        n = adjacency.shape[0]
        clear_all_caches()
        tilings = {
            (2, None): partition_graph(adjacency, 2, seed=0,
                                       refine_passes=1).parts,
            (3, None): partition_graph(adjacency, 3, seed=0,
                                       refine_passes=1).parts,
            (None, 32): np.arange(n) // 32,
            (None, 64): np.arange(n) // 64,
        }
        structures = {key: locality_structure(adjacency, *key)
                      for key in tilings}
        assert len({id(s) for s in structures.values()}) == 4
        for key, tiles in tilings.items():
            got, fresh = structures[key], LocalityStructure(adjacency, tiles)
            assert (got.num_cross_edges, got.internal_unique,
                    got.mean_part_size, got.unique_pairs) == (
                fresh.num_cross_edges, fresh.internal_unique,
                fresh.mean_part_size, fresh.unique_pairs)
            assert locality_structure(adjacency.copy(), *key) is got
        assert cache_stats()["locality"]["entries"] == 4
        clear_all_caches()
        assert cache_stats()["locality"] == {"entries": 0, "hits": 0,
                                             "misses": 0}
