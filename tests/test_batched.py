"""One simulation path: what a sweep shares, held to fresh builds.

The jobs of a sweep share two things in one process: each (dataset,
model, seed) recipe's :class:`~repro.sim.workload.WorkloadStructure`,
built once into the engine's workload memo, and each layer's row
statistics, memoized on the shared ``LayerSpec`` by
:meth:`~repro.mega.MegaModel.layer_cost`.  The contract: every engine
report equals ``build(**variant).simulate(build_workload(...))`` on a
fresh build, field for field, and the seed snapshots in
:mod:`repro.perf.reference` pin the measurement and the bit synthesis.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import engine as engine_mod
from repro.eval.engine import SimJob, SweepEngine
from repro.formats import HEADER_BITS, AdaptivePackageFormat, PackageConfig
from repro.mega import MegaModel
from repro.mega.config import MegaConfig
from repro.perf.cache import cached_load_dataset
from repro.perf.reference import (
    average_feature_bits_reference,
    measure_adaptive_package_reference,
    synthesize_degree_aware_bits_reference,
)
from repro.registry import ACCELERATORS, get_accelerator
from repro.sim import workload as workload_mod
from repro.sim.workload import (
    build_workload,
    degree_ranks,
    synthesize_degree_aware_bits,
)


def _fresh_report(job: SimJob):
    """The job simulated on a freshly built workload: no memo shared."""
    workload = build_workload(
        job.dataset, job.model, job.precision, seed=job.seed,
        graph=cached_load_dataset(job.dataset, scale="sim", seed=job.seed),
        target_average_bits=job.target_average_bits)
    return get_accelerator(job.accelerator).build(
        **dict(job.variant)).simulate(workload)


# ----------------------------------------------------------------------
# Engine reports against fresh builds
# ----------------------------------------------------------------------

class TestSimulateBatchIdentity:
    def test_every_registered_accelerator(self, sweep_engine):
        """A sweep over every registry entry, sharing workloads, equals
        per-job simulation of fresh builds (mixed model types
        included)."""
        jobs = [SimJob.from_call(name, "cora", "gcn",
                                 target_average_bits=target)
                for name in ACCELERATORS.names() for target in (None, 4.0)]
        reports = sweep_engine.run(jobs)
        for job in jobs:
            assert reports[job] == _fresh_report(job), job.accelerator

    def test_randomized_variant_grid(self, sweep_engine):
        """A DSE-style grid — accelerator ablations and variant kwargs
        over shared workloads at random targets — equals fresh builds,
        including the jobs whose row statistics come from the memo."""
        rng = np.random.default_rng(7)
        targets = sorted(float(t) for t in rng.uniform(2.5, 7.5, size=6))
        cases = [("mega", {}), ("mega", {"partition": False}),
                 ("mega-no-condense", {}), ("mega-bitmap", {}),
                 ("mega", {"condense": False, "partition": False})]
        jobs = [SimJob.from_call(name, "citeseer", "gcn", variant,
                                 target_average_bits=target)
                for name, variant in cases for target in targets]
        reports = sweep_engine.run(jobs)
        for job in jobs:
            assert reports[job] == _fresh_report(job)

    def test_shared_workload_keeps_each_config_apart(self):
        """MEGA configs that differ in package lengths or lane geometry
        each get their own row statistics from one shared workload,
        whichever simulates first."""
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        configs = [MegaConfig(),
                   MegaConfig(package=PackageConfig(32, 64, 96)),
                   MegaConfig(combination_tiles=2),
                   MegaConfig(bses_per_cpe=2)]

        def workload():
            return build_workload("cora", "gcn", seed=0, graph=graph,
                                  target_average_bits=4.0)

        fresh = [MegaModel(config).simulate(workload()) for config in configs]
        assert len({repr(report) for report in fresh}) == len(configs)
        for order in (configs, configs[::-1]):
            shared = workload()
            for config in order:
                assert (MegaModel(config).simulate(shared)
                        == fresh[configs.index(config)])


# ----------------------------------------------------------------------
# measure vs the seed reference
# ----------------------------------------------------------------------

def _random_measure_case(rng, n):
    nnz = rng.integers(0, 40, size=n).astype(np.int64)
    nnz[rng.random(n) < 0.2] = 0           # whole-run zero totals
    bits = rng.choice((2, 3, 4, 8), size=n).astype(np.int64)
    return nnz, bits


class TestMeasureBatch:
    """Rows sharing one non-zero map, each measured as the seed loop
    measures it."""

    @pytest.mark.parametrize("config", [
        PackageConfig(),
        PackageConfig(short=8, medium=16, long=24),
        PackageConfig(short=16, medium=16, long=16),
    ])
    def test_matches_scalar_and_reference(self, config):
        rng = np.random.default_rng(11)
        fmt = AdaptivePackageFormat(config)
        nnz = None
        for _ in range(5):
            nnz_i, bits = _random_measure_case(rng, 300)
            nnz = nnz_i if nnz is None else nnz   # one shared nnz map
            assert fmt.measure(nnz, bits, 24) == \
                measure_adaptive_package_reference(nnz, bits, 24,
                                                   config=config)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_inputs_match_reference(self, data):
        """``measure`` equals the seed loop on random inputs, failing
        where it fails (a run whose bitwidth exceeds the long payload
        divides by zero)."""
        n = data.draw(st.integers(1, 120))
        rows = data.draw(st.integers(1, 4))
        nnz = np.array(data.draw(st.lists(
            st.one_of(st.just(0), st.integers(0, 40)),
            min_size=n, max_size=n)), dtype=np.int64)
        stack = np.array(data.draw(st.lists(
            st.lists(st.integers(1, 8), min_size=n, max_size=n),
            min_size=rows, max_size=rows)), dtype=np.int64)
        level = st.integers(HEADER_BITS + 1, 256)
        config = PackageConfig(data.draw(level), data.draw(level),
                               data.draw(level))
        feature_dim = data.draw(st.integers(1, 64))
        fmt = AdaptivePackageFormat(config)

        for bits in stack:
            try:
                expected = measure_adaptive_package_reference(
                    nnz, bits, feature_dim, config=config)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    fmt.measure(nnz, bits, feature_dim)
            else:
                assert fmt.measure(nnz, bits, feature_dim) == expected


# ----------------------------------------------------------------------
# A recipe's workloads, derived from one structure
# ----------------------------------------------------------------------

class TestWorkloadBatch:
    @pytest.mark.parametrize("model,precision,targets", [
        ("gcn", "degree-aware", (None, 2.9, 4.0, 6.5)),
        ("gin", "degree-aware", (3.5, 5.0)),
        ("graphsage", "degree-aware", (None, 4.0)),
        ("gcn", "fp32", (None,)),
        ("gcn", "int8", (None,)),
    ])
    def test_build_workload_batch_identity(self, model, precision, targets):
        """Each target's workload from the engine's shared recipe
        structure equals a fresh ``build_workload``."""
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        for target in targets:
            workload = engine_mod._workload("cora", model, precision, 0,
                                            target)
            fresh = build_workload("cora", model, precision, seed=0,
                                   graph=graph, target_average_bits=target)
            assert workload.name == fresh.name
            assert workload.metadata == fresh.metadata
            assert (workload.adjacency != fresh.adjacency).nnz == 0
            assert len(workload.layers) == len(fresh.layers)
            for got, want in zip(workload.layers, fresh.layers):
                assert got.in_dim == want.in_dim
                assert got.out_dim == want.out_dim
                np.testing.assert_array_equal(got.input_bits, want.input_bits)
                np.testing.assert_array_equal(got.input_nnz, want.input_nnz)
                assert got.weight_bits == want.weight_bits

    def test_batch_shares_structure_arrays(self):
        """Workloads of one recipe share its structure's adjacency and
        non-zero maps by identity, across targets and precisions, and
        a repeated (precision, target) is the same workload."""
        a = engine_mod._workload("cora", "gcn", "degree-aware", 0, 3.0)
        b = engine_mod._workload("cora", "gcn", "degree-aware", 0, 5.0)
        c = engine_mod._workload("cora", "gcn", "fp32", 0, None)
        assert a.adjacency is b.adjacency is c.adjacency
        for la, lb, lc in zip(a.layers, b.layers, c.layers):
            assert la.input_nnz is lb.input_nnz is lc.input_nnz
        assert engine_mod._workload("cora", "gcn", "degree-aware", 0, 3.0) is a

    def test_synthesize_batch_identity(self):
        rng = np.random.default_rng(3)
        degrees = rng.integers(1, 60, size=500).astype(np.int64)
        ranks = degree_ranks(degrees)
        for target in (2.0, 2.4, 3.7, 5.5, 8.0):
            bits = synthesize_degree_aware_bits(ranks, target)
            assert bits.dtype == np.int64
            np.testing.assert_array_equal(
                bits, synthesize_degree_aware_bits_reference(degrees, target))

    def test_average_feature_bits_matches_reference(self):
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        for target in (None, 3.0, 6.0):
            workload = build_workload("cora", "gcn", "degree-aware", seed=0,
                                      graph=graph, target_average_bits=target)
            assert workload.average_feature_bits() == \
                average_feature_bits_reference(workload)


# ----------------------------------------------------------------------
# What a cold sweep shares
# ----------------------------------------------------------------------

_GRID = [SimJob.from_call(name, "cora", "gcn", target_average_bits=target)
         for name in ("mega", "mega-no-condense", "mega-bitmap")
         for target in (None, 3.0, 4.5, 6.0)]


class TestSweepSharing:
    def test_cold_grid_builds_and_measures_once(self, tmp_path, monkeypatch):
        """A cold 12-job grid builds its recipe structure once and
        measures each row once: 4 targets x 2 layers x (input, output)
        maps, which ``mega`` and ``mega-no-condense`` share
        (``mega-bitmap`` stores in Bitmap).  The memos outlive an engine
        but not ``clear_memory()``."""
        calls = Counter()
        measure = AdaptivePackageFormat.measure
        structure = workload_mod.workload_structure

        def counted_measure(self, *args, **kwargs):
            calls["measure"] += 1
            return measure(self, *args, **kwargs)

        def counted_structure(*args, **kwargs):
            calls["structure"] += 1
            return structure(*args, **kwargs)

        monkeypatch.setattr(AdaptivePackageFormat, "measure", counted_measure)
        monkeypatch.setattr(workload_mod, "workload_structure",
                            counted_structure)

        def cold_run(tag: str) -> Counter:
            engine = SweepEngine(workers=0, cache_dir=tmp_path / tag)
            calls.clear()
            engine.run(_GRID)
            assert engine.executed_jobs == len(_GRID)
            return Counter(calls)

        SweepEngine(workers=0, cache_dir=tmp_path / "reset").clear_memory()
        assert cold_run("first") == {"measure": 16, "structure": 1}
        # A fresh store executes every job again, from the process memos.
        assert cold_run("memo") == {}
        SweepEngine(workers=0, cache_dir=tmp_path / "memo").clear_memory()
        assert cold_run("cleared") == {"measure": 16, "structure": 1}
