"""Batched simulation: bit-identity against the scalar oracle.

The contract under test (ROADMAP item 5): for every job,
``simulate_batch(models, workloads)[i]`` equals
``models[i].simulate(workloads[i])`` field for field — and the seed
reference snapshots in :mod:`repro.perf.reference` pin the scalar side,
so batched == scalar == seed.  On top of the core identity, the engine
wiring must keep cache/artifact/journal semantics unchanged: warm
replays execute zero jobs, ``SweepEngine(batch=False)`` forces the
scalar path, and batch honesty flags report what actually ran.
"""

import numpy as np
import pytest

from repro.eval.engine import (
    SimJob,
    SweepEngine,
    plan_sim_batches,
    prepare_sim_batch,
)
from repro.eval import engine as engine_mod
from repro.formats import AdaptivePackageFormat, PackageConfig
from repro.perf.cache import cached_load_dataset
from repro.perf.reference import (
    average_feature_bits_reference,
    measure_adaptive_package_reference,
)
from repro.perf.timers import Timer
from repro.registry import ACCELERATORS, get_accelerator
from repro.sim.batched import batchable_model, simulate_batch
from repro.sim.workload import (
    build_workload,
    build_workload_batch,
    synthesize_degree_aware_bits,
    synthesize_degree_aware_bits_batch,
)


def _fresh_engine(tmp_path, tag, **kwargs) -> SweepEngine:
    return SweepEngine(workers=0, cache_dir=tmp_path / tag, **kwargs)


# ----------------------------------------------------------------------
# Core identity: simulate_batch vs the scalar oracle
# ----------------------------------------------------------------------

class TestSimulateBatchIdentity:
    def test_every_registered_accelerator(self):
        """One batch spanning every registry entry is bit-identical to
        per-job scalar simulation (mixed model types included)."""
        models, workloads = [], []
        for name in ACCELERATORS.names():
            entry = get_accelerator(name)
            for target in (None, 4.0):
                models.append(entry.build())
                workloads.append(build_workload(
                    "cora", "gcn", entry.precision, seed=0,
                    graph=cached_load_dataset("cora", scale="sim", seed=0),
                    target_average_bits=target))
        batched = simulate_batch(models, workloads)
        for model, workload, report in zip(models, workloads, batched):
            assert report == model.simulate(workload), model.name

    def test_randomized_variant_grid(self):
        """A DSE-style grid — shared workloads across accelerator
        ablations and variant kwargs, random targets — stays
        bit-identical, including the deduped-row fast paths."""
        rng = np.random.default_rng(7)
        targets = sorted(float(t) for t in rng.uniform(2.5, 7.5, size=6))
        graph = cached_load_dataset("citeseer", scale="sim", seed=0)
        shared = build_workload_batch("citeseer", "gcn", "degree-aware",
                                      seed=0, graph=graph,
                                      targets=tuple(targets))
        by_target = dict(zip(targets, shared))
        cases = [("mega", {}), ("mega", {"partition": False}),
                 ("mega-no-condense", {}), ("mega-bitmap", {}),
                 ("mega", {"condense": False, "partition": False})]
        models, workloads = [], []
        for name, variant in cases:
            for target in targets:
                models.append(get_accelerator(name).build(**variant))
                workloads.append(by_target[target])
        batched = simulate_batch(models, workloads)
        for model, workload, report in zip(models, workloads, batched):
            assert report == model.simulate(workload)

    def test_unshared_workloads_fall_back_scalar(self):
        """Independently built (equal but not identical) workloads take
        the scalar path and still produce correct reports."""
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        a = build_workload("cora", "gcn", "degree-aware", seed=0, graph=graph)
        b = build_workload("cora", "gcn", "degree-aware", seed=0, graph=graph)
        models = [get_accelerator("mega").build() for _ in range(2)]
        batched = simulate_batch(models, [a, b])
        assert batched[0] == models[0].simulate(a)
        assert batched[1] == models[1].simulate(b)

    def test_batchable_model_predicate(self):
        assert batchable_model(get_accelerator("mega").build())
        assert batchable_model(get_accelerator("hygcn").build())

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            simulate_batch([get_accelerator("mega").build()], [])


# ----------------------------------------------------------------------
# measure_batch vs measure vs the seed reference
# ----------------------------------------------------------------------

def _random_measure_case(rng, n):
    nnz = rng.integers(0, 40, size=n).astype(np.int64)
    nnz[rng.random(n) < 0.2] = 0           # whole-run zero totals
    bits = rng.choice((2, 3, 4, 8), size=n).astype(np.int64)
    return nnz, bits


class TestMeasureBatch:
    @pytest.mark.parametrize("config", [
        PackageConfig(),
        PackageConfig(short=8, medium=16, long=24),
        PackageConfig(short=16, medium=16, long=16),
    ])
    def test_matches_scalar_and_reference(self, config):
        rng = np.random.default_rng(11)
        fmt = AdaptivePackageFormat(config)
        stacks, nnz = [], None
        for _ in range(5):
            nnz_i, bits = _random_measure_case(rng, 300)
            nnz = nnz_i if nnz is None else nnz   # one shared nnz map
            stacks.append(bits)
        bits_stack = np.stack(stacks)
        batch = fmt.measure_batch(nnz, bits_stack, feature_dim=24)
        for bits, report in zip(stacks, batch):
            scalar = fmt.measure(nnz, bits, 24)
            reference = measure_adaptive_package_reference(
                nnz, bits, 24, config=config)
            assert report.total_bits == scalar.total_bits == reference.total_bits
            assert report.breakdown == scalar.breakdown == reference.breakdown

    def test_empty_batch_and_shape_guard(self):
        fmt = AdaptivePackageFormat()
        nnz = np.array([1, 2], dtype=np.int64)
        assert fmt.measure_batch(nnz, np.empty((0, 2), dtype=np.int64), 8) == []
        with pytest.raises(ValueError):
            fmt.measure_batch(nnz, np.array([4, 4], dtype=np.int64), 8)


# ----------------------------------------------------------------------
# Workload batch builders and the vectorized stats
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
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        batch = build_workload_batch("cora", model, precision, seed=0,
                                     graph=graph, targets=targets)
        for target, workload in zip(targets, batch):
            scalar = build_workload("cora", model, precision, seed=0,
                                    graph=graph, target_average_bits=target)
            assert workload.name == scalar.name
            assert len(workload.layers) == len(scalar.layers)
            for got, want in zip(workload.layers, scalar.layers):
                assert got.in_dim == want.in_dim
                assert got.out_dim == want.out_dim
                np.testing.assert_array_equal(got.input_bits, want.input_bits)
                np.testing.assert_array_equal(got.input_nnz, want.input_nnz)
                assert got.weight_bits == want.weight_bits

    def test_batch_shares_structure_arrays(self):
        """Workloads of one batch share adjacency and nnz arrays by
        identity — the precondition for cross-job stacking."""
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        a, b = build_workload_batch("cora", "gcn", "degree-aware", seed=0,
                                    graph=graph, targets=(3.0, 5.0))
        assert a.adjacency is b.adjacency
        for la, lb in zip(a.layers, b.layers):
            assert la.input_nnz is lb.input_nnz

    def test_synthesize_batch_identity(self):
        rng = np.random.default_rng(3)
        degrees = rng.integers(1, 60, size=500).astype(np.int64)
        targets = [2.0, 2.4, 3.7, 5.5, 8.0]
        stacked = synthesize_degree_aware_bits_batch(degrees, targets)
        for target, row in zip(targets, stacked):
            np.testing.assert_array_equal(
                row, synthesize_degree_aware_bits(degrees, target))

    def test_average_feature_bits_matches_reference(self):
        graph = cached_load_dataset("cora", scale="sim", seed=0)
        for target in (None, 3.0, 6.0):
            workload = build_workload("cora", "gcn", "degree-aware", seed=0,
                                      graph=graph, target_average_bits=target)
            assert workload.average_feature_bits() == \
                average_feature_bits_reference(workload)

    def test_stacked_row_sum_is_bitwise_scalar_sum(self):
        """The one float reduction the batched path stacks: summing a
        C-contiguous 2-D float64 array over its last axis is bit-equal
        to summing each row alone (same pairwise reduction per row)."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 4000))
            stack = np.ascontiguousarray(
                rng.lognormal(2.0, 3.0, size=(rows, cols)))
            stacked = stack.sum(axis=1)
            for i in range(rows):
                assert stacked[i] == stack[i].sum()


# ----------------------------------------------------------------------
# Engine wiring: knobs, honesty flags, cache semantics
# ----------------------------------------------------------------------

_GRID = [SimJob.from_call(name, "cora", "gcn", target_average_bits=target)
         for name in ("mega", "mega-no-condense", "mega-bitmap")
         for target in (None, 3.0, 4.5, 6.0)]


class TestEngineBatching:
    def test_batched_equals_scalar_equals_warm(self, tmp_path):
        scalar = _fresh_engine(tmp_path, "scalar", batch=False)
        with Timer() as scalar_t:
            reference = scalar.run(_GRID)
        assert not scalar.batch_used and scalar.batch_sizes == []

        engine_mod._WORKLOAD_MEMO.clear()
        batched = _fresh_engine(tmp_path, "batched", batch=True)
        with Timer() as batched_t:
            results = batched.run(_GRID)
        assert batched.batch_used
        assert sum(batched.batch_sizes) == len(_GRID)
        assert all(results[j] == reference[j] for j in _GRID)
        assert batched_t.elapsed <= scalar_t.elapsed, \
            (scalar_t.elapsed, batched_t.elapsed)

        # Warm replay through the artifact store: zero executions, no
        # batches formed (nothing pending), identical reports.
        batched.clear_memory()
        replay = batched.run(_GRID)
        assert batched.executed_jobs == 0
        assert not batched.batch_used
        assert all(replay[j] == reference[j] for j in _GRID)

    def test_env_knob_disables_batching(self, tmp_path):
        engine = _fresh_engine(tmp_path, "off", batch=False)
        engine.run(_GRID[:4])
        assert not engine.batch_used
        # Batching is on unless the constructor turns it off.
        assert _fresh_engine(tmp_path, "default").batch

    def test_batch_max_splits_groups(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "_SIM_BATCH_MAX", 5)
        batches = plan_sim_batches(_GRID)
        assert [len(b) for b in batches] == [5, 5, 2]
        engine = _fresh_engine(tmp_path, "split", batch=True)
        results = engine.run(_GRID)
        assert engine.batch_sizes == [5, 5, 2]
        scalar = _fresh_engine(tmp_path, "split-ref", batch=False)
        engine_mod._WORKLOAD_MEMO.clear()
        reference = scalar.run(_GRID)
        assert all(results[j] == reference[j] for j in _GRID)

    def test_plan_skips_singletons_and_train_jobs(self):
        assert plan_sim_batches([_GRID[0]]) == []
        assert plan_sim_batches([]) == []
        # Different datasets never share a batch.
        mixed = [SimJob.from_call("mega", "cora", "gcn"),
                 SimJob.from_call("mega", "citeseer", "gcn")]
        assert plan_sim_batches(mixed) == []

    def test_timeout_disables_prepare_hook(self, tmp_path):
        engine = _fresh_engine(tmp_path, "deadline", batch=True, timeout=30.0)
        assert engine._prepare_hook() is None
        assert _fresh_engine(tmp_path, "free", batch=True)._prepare_hook() \
            is not None

    def test_prepare_stash_is_consumed_once(self):
        jobs = _GRID[:6]
        sizes = prepare_sim_batch(jobs)
        assert sizes and sum(sizes) == len(jobs)
        assert all(job in engine_mod._BATCH_STASH for job in jobs)
        first = engine_mod._execute_job(jobs[0])
        assert jobs[0] not in engine_mod._BATCH_STASH
        # Scalar fallback recomputes the identical report.
        assert engine_mod._execute_job(jobs[0]) == first
        engine_mod._BATCH_STASH.clear()

    def test_stats_carry_batch_flags(self, tmp_path):
        engine = _fresh_engine(tmp_path, "stats", batch=True)
        engine.run(_GRID[:4])
        executed = engine.stats()["executed"]
        assert executed["batch_used"] is True
        assert executed["batched_jobs"] == 4
        engine.clear_memory()
        assert engine.stats()["executed"]["batch_used"] is False
