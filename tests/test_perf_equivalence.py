"""Equivalence of the vectorized hot kernels vs the seed references,
plus the repro.perf cache/timer/bench subsystem itself.

The Adaptive-Package encoder, CondenseUnit and CSR decode must be
*bit-identical* to the seed pure-Python loops preserved in
:mod:`repro.perf.reference` — same package stream, same Sparse Buffer
layout, same hardware counters.  Neighbor sampling is held to
distributional equivalence (uniform without replacement, same per-row
counts): it consumes the RNG differently than the seed loop, so the
drawn edge set for a given seed legitimately differs.  The Eq. 2
fake-quantizers (one rounding kernel in :mod:`repro.quant.fake_quant`)
must match the seed kernels' outputs and every gradient bit for bit and
dtype for dtype, and the training loop must match the seed loop with a
quantization flow's hooks and optimizers attached.  The DQ quantizer,
folded from a uniform-quantizer subclass into one class, must give the
seed pair's hook outputs and trained results exactly.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.formats import AdaptivePackageFormat, CsrFormat, PackageConfig
from repro.graphs import (
    coo_view,
    cross_edge_mask,
    partition_graph,
    synthetic_graph,
)
from repro.mega import CondenseUnit, sparse_connection_sources
from repro.perf import (
    Timer,
    cache_stats,
    cached_load_dataset,
    cached_partition,
    clear_all_caches,
    graph_fingerprint,
    time_callable,
)
from repro.perf.bench import BENCH_SIZES, run_benchmarks
from repro.perf.cache import PARTITION_CACHE
from repro.perf.reference import (
    CondenseUnitReference,
    DegreeQuantizerReference,
    FakeQuantPerColumnReference,
    FakeQuantPerGroupReference,
    FakeQuantSTEReference,
    csr_decode_reference,
    encode_adaptive_package_reference,
    quantize_integer_reference,
    sample_neighbors_reference,
    train_reference,
)
from repro.quant import FakeQuantPerGroup, FakeQuantSTE, quantize_integer
from repro.tensor import Tensor


def random_quantized_matrix(rng, n, f, density, signed=False):
    bits = rng.choice([1, 2, 3, 4, 8], size=n).astype(np.int64)
    low = -200 if signed else 0
    vals = (rng.integers(low, 200, size=(n, f))
            * (rng.random((n, f)) < density)).astype(np.int64)
    if signed:
        np.clip(vals, -(2 ** (bits - 1))[:, None], (2 ** bits - 1)[:, None],
                out=vals)
    else:
        vals = np.minimum(vals, (2 ** bits - 1)[:, None])
    return vals, bits


def random_partitioned_graph(seed, num_nodes=120, num_parts=5):
    rng = np.random.default_rng(seed)
    edges = int(rng.integers(num_nodes, num_nodes * 6))
    graph = synthetic_graph(num_nodes, edges, 8, 4, seed=seed)
    parts = rng.integers(0, num_parts, size=num_nodes).astype(np.int64)
    parts[rng.integers(0, num_nodes)] = num_parts - 1  # every id present
    return graph, parts


class TestAdaptivePackageEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        vals, bits = random_quantized_matrix(rng, n, f,
                                             density=float(rng.uniform(0, 0.8)),
                                             signed=bool(rng.integers(0, 2)))
        cfg = PackageConfig() if seed % 3 else PackageConfig(16, 24, 32)
        fmt = AdaptivePackageFormat(cfg)
        fast = fmt.encode(vals, bits)
        ref = encode_adaptive_package_reference(vals, bits, cfg)

        assert fast.num_packages == ref.num_packages
        for a, b in zip(fast.packages, ref.packages):
            assert a.mode == b.mode
            assert a.bitwidth == b.bitwidth
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(fast.bitmap, ref.bitmap)
        if ref.signs is None:
            assert fast.signs is None
        else:
            np.testing.assert_array_equal(fast.signs, ref.signs)
        assert fast.report().total_bits == ref.report().total_bits
        assert fast.report().breakdown == ref.report().breakdown
        np.testing.assert_array_equal(fmt.decode(fast), vals)

    def test_soa_and_materialized_reports_agree(self):
        rng = np.random.default_rng(7)
        vals, bits = random_quantized_matrix(rng, 50, 30, 0.3)
        fmt = AdaptivePackageFormat()
        encoded = fmt.encode(vals, bits)
        soa_report = encoded.report()
        _ = encoded.packages  # materialize
        encoded._pkg_modes = None  # force the package-list accounting path
        assert encoded.report().breakdown == soa_report.breakdown

    def test_empty_and_all_zero_inputs(self):
        fmt = AdaptivePackageFormat()
        for n, f in ((0, 4), (5, 8)):
            vals = np.zeros((n, f), dtype=np.int64)
            bits = np.full(n, 4, dtype=np.int64)
            encoded = fmt.encode(vals, bits)
            assert encoded.num_packages == 0
            assert encoded.packages == []
            np.testing.assert_array_equal(fmt.decode(encoded), vals)


class TestCondenseEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_run_matches_reference(self, seed):
        graph, parts = random_partitioned_graph(seed)
        fast = CondenseUnit(graph.adjacency, parts)
        ref = CondenseUnitReference(graph.adjacency, parts)
        assert fast.run() == ref.run()
        assert fast.matches == ref.matches
        assert fast.comparisons == ref.comparisons
        assert fast.address_list == ref.address_list
        assert fast.remaining_eids() == ref.remaining_eids() == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_step_by_step_matches_reference(self, seed):
        graph, parts = random_partitioned_graph(seed, num_nodes=60)
        fast = CondenseUnit(graph.adjacency, parts)
        ref = CondenseUnitReference(graph.adjacency, parts)
        for node in range(graph.num_nodes):
            assert fast.on_node_combined(node) == ref.on_node_combined(node)
        assert fast.sparse_buffer == ref.sparse_buffer
        assert fast.comparisons == ref.comparisons

    def test_run_after_partial_stepping(self):
        graph, parts = random_partitioned_graph(3)
        fast = CondenseUnit(graph.adjacency, parts)
        ref = CondenseUnitReference(graph.adjacency, parts)
        for node in range(10):
            fast.on_node_combined(node)
            ref.on_node_combined(node)
        assert fast.run() == ref.run()
        assert fast.comparisons == ref.comparisons
        assert fast.remaining_eids() == 0

    def test_layout_matches_vectorized_oracle(self):
        graph, parts = random_partitioned_graph(11)
        buffer = CondenseUnit(graph.adjacency, parts).run()
        layout = sparse_connection_sources(graph.adjacency, parts)
        for p, sources in layout.items():
            assert buffer[p] == sources.tolist()


class TestSamplingAndDecode:
    def test_sample_neighbors_matches_reference_distribution_shape(self):
        graph = synthetic_graph(300, 2500, 8, 4, seed=0)
        sampled = graph.sample_neighbors(3)
        reference = sample_neighbors_reference(graph.adjacency, 3)
        np.testing.assert_array_equal(
            np.minimum(np.diff(graph.adjacency.tocsr().indptr), 3),
            np.diff(sampled.adjacency.indptr))
        np.testing.assert_array_equal(np.diff(sampled.adjacency.indptr),
                                      np.diff(reference.indptr))

    def test_sample_neighbors_subset_of_original(self):
        graph = synthetic_graph(200, 1800, 8, 4, seed=1)
        sampled = graph.sample_neighbors(2).adjacency.astype(bool)
        original = graph.adjacency.astype(bool)
        assert (sampled.multiply(original) != sampled).nnz == 0

    def test_sample_neighbors_keeps_small_rows_intact(self):
        graph = synthetic_graph(200, 1000, 8, 4, seed=2)
        kept = graph.sample_neighbors(10 ** 6).adjacency.astype(bool)
        assert (kept != graph.adjacency.astype(bool)).nnz == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_csr_decode_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 50)), int(rng.integers(1, 40))
        vals, bits = random_quantized_matrix(rng, n, f,
                                             density=float(rng.uniform(0, 0.7)))
        encoded = CsrFormat().encode(vals, bits)
        np.testing.assert_array_equal(CsrFormat().decode(encoded),
                                      csr_decode_reference(encoded))
        np.testing.assert_array_equal(CsrFormat().decode(encoded), vals)


# Scales at and below the 1e-8 floor of the learned paths, and powers
# of two, which turn the half-integer inputs into exact rounding ties.
_TINY_SCALES = (1e-8, 5e-9, 1e-12, 0.0)
_POW2_SCALES = (0.25, 0.5, 1.0, 2.0)


def quant_input(rng, n, f):
    """A float32 map, signed or non-negative, with exact zeros,
    half-integers and entries far past any clip level."""
    x = rng.normal(0.0, 1.0, size=(n, f))
    x[rng.random((n, f)) < 0.3] = 0.0
    ties = rng.random((n, f)) < 0.2
    x[ties] = rng.integers(-40, 40, size=int(ties.sum())) + 0.5
    x[rng.random((n, f)) < 0.1] *= 1e4
    if rng.integers(0, 2):
        x = np.abs(x)
    return x.astype(np.float32)


def mixed_scales(rng, size, special):
    """Uniform scales with some drawn from ``special``."""
    scales = rng.uniform(1e-3, 2.0, size=size)
    pick = rng.random(size) < 0.4
    scales[pick] = rng.choice(special, size=int(pick.sum()))
    return scales


def run_kernel(function, inputs, requires_grad, upstream):
    """Forward and backward ``function`` on ``inputs`` converted as
    ``Function.apply`` converts them; the output, then every value
    backward returns."""
    ctx = {"needs_grad": tuple(requires_grad)}
    out = function.forward(ctx, *[Tensor(value).data for value in inputs])
    return (out,) + tuple(function.backward(ctx, upstream))


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.dtype == w.dtype, (g.dtype, w.dtype)
        assert np.array_equal(g, w)


class TestFakeQuantEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_quantize_integer_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        x = quant_input(rng, n, f).astype(
            rng.choice([np.float32, np.float64]))
        if rng.integers(0, 2):  # Degree-Aware: scale and bits per row
            scale = mixed_scales(rng, (n, 1), _POW2_SCALES)
            bits = rng.integers(1, 9, size=(n, 1))
        else:                   # uniform: one observer scale and bitwidth
            scale = float(mixed_scales(rng, 1, _POW2_SCALES)[0])
            bits = int(rng.integers(1, 9))
        unsigned = (None, True, False)[int(rng.integers(0, 3))]
        got = quantize_integer(x, scale, bits, unsigned)
        want = quantize_integer_reference(x, scale, bits, unsigned)
        assert_bit_identical([got], [want])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_fixed_scales_match_seed_ste(self, seed):
        """Observer scales (DQ, uniform): one for the features, one per
        column for weights and combined features, each passed as its
        caller passes it now and passed it to the seed kernel."""
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        x = quant_input(rng, n, f)
        bits = int(rng.integers(2, 9))
        upstream = rng.normal(size=(n, f)).astype(np.float32)
        # Observers floor their scales at 1e-8, the least a fixed scale is.
        special = _POW2_SCALES + (1e-8,)
        if rng.integers(0, 2):
            scale = float(mixed_scales(rng, 1, special)[0])
            seed_scale = np.float64(scale)
        else:
            scale = mixed_scales(rng, f, special)
            seed_scale = scale[None, :]
        requires = (bool(rng.integers(0, 2)), False, False)
        got = run_kernel(FakeQuantSTE, (x, scale, bits), requires, upstream)
        want = run_kernel(FakeQuantSTEReference,
                          (x, seed_scale, np.float64(bits)), requires,
                          upstream)
        assert_bit_identical(got, want)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_learned_columns_match_seed_per_column(self, seed):
        """Degree-Aware weights and combined features: one learned scale
        per column, including scales at and below the 1e-8 floor."""
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        x = quant_input(rng, n, f)
        scales = mixed_scales(rng, f, _TINY_SCALES + _POW2_SCALES)
        bits = int(rng.integers(2, 9))
        upstream = rng.normal(size=(n, f)).astype(np.float32)
        requires = (bool(rng.integers(0, 2)), True, False)
        got = run_kernel(FakeQuantSTE, (x, scales, bits), requires, upstream)
        want = run_kernel(FakeQuantPerColumnReference,
                          (x, scales, float(bits)), requires, upstream)
        assert_bit_identical(got, want)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_per_group_matches_reference(self, seed):
        """Degree-Aware features: a learned scale and bitwidth per degree
        group, with fractional bitwidths at and past the bounds."""
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        num_groups = int(rng.integers(1, 8))
        x = quant_input(rng, n, f)
        scales = mixed_scales(rng, num_groups, _TINY_SCALES + _POW2_SCALES)
        lo, hi = 2.0, 8.0
        edges = (lo - 0.3, lo, lo + 0.5, 4.5, hi - 0.5, hi, hi + 0.7)
        bits = rng.uniform(lo, hi, size=num_groups)
        at_edge = rng.random(num_groups) < 0.5
        bits[at_edge] = rng.choice(edges, size=int(at_edge.sum()))
        groups = rng.integers(0, num_groups, size=n)
        inputs = (x, scales, bits, groups,
                  np.full(num_groups, lo), np.full(num_groups, hi))
        requires = (bool(rng.integers(0, 2)), True, True, False, False, False)
        upstream = rng.normal(size=(n, f)).astype(np.float32)
        got = run_kernel(FakeQuantPerGroup, inputs, requires, upstream)
        want = run_kernel(FakeQuantPerGroupReference, inputs, requires,
                          upstream)
        assert_bit_identical(got, want)


class TestTrainReference:
    """``train`` against the seed loop with a quantization flow's hooks
    attached, built fresh for each loop as the flows build them."""

    @pytest.fixture(scope="class")
    def graph(self):
        return cached_load_dataset("cora", scale="tiny")

    @staticmethod
    def degree_aware(loop, graph, config):
        from repro.nn import build_model
        from repro.quant import (DegreeAwareConfig, DegreeAwareQuantizer,
                                 layer_dims_for)

        # Starting inside the memory budget makes every epoch eligible
        # for selection, so the selected accuracies are compared too.
        hooks = DegreeAwareQuantizer(graph, layer_dims_for("gcn", graph),
                                     DegreeAwareConfig(init_bits=3.0))
        model = build_model("gcn", graph.feature_dim, graph.num_classes,
                            hooks=hooks, seed=0)
        model.train()
        model(Tensor(graph.features), graph)
        return loop(model, graph, config=config,
                    extra_loss=hooks.extra_loss,
                    extra_optimizers=hooks.optimizers(),
                    select_when=lambda: (hooks.feature_memory_kb()
                                         <= hooks.memory_target_kb * 1.2))

    @staticmethod
    def degree_quant(loop, graph, config):
        from repro.nn import build_model
        from repro.quant import DegreeQuantConfig, DegreeQuantizer

        hooks = DegreeQuantizer(graph, DegreeQuantConfig(bits=4, seed=0))
        model = build_model("gcn", graph.feature_dim, graph.num_classes,
                            hooks=hooks, seed=0)
        return loop(model, graph, config=config)

    @pytest.mark.parametrize("flow", ["degree_aware", "degree_quant"])
    def test_quantized_training_matches_seed_loop(self, graph, flow):
        from repro.nn import TrainConfig, train

        config = TrainConfig(epochs=5)
        run = getattr(self, flow)
        new = run(train, graph, config)
        seed = run(train_reference, graph, config)
        assert new.test_accuracy == seed.test_accuracy
        assert new.best_val_accuracy == seed.best_val_accuracy
        assert new.epochs_run == seed.epochs_run == 5
        assert new.history == seed.history


class TestDegreeQuantizerFold:
    """``DegreeQuantizer`` against the seed's uniform-quantizer subclass,
    both built from one ``DegreeQuantConfig``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return cached_load_dataset("cora", scale="tiny")

    @pytest.mark.parametrize("bits,p_max", [(4, 0.2), (2, 0.0), (8, 1.0)])
    def test_hooks_match_seed_quantizer(self, graph, bits, p_max):
        from repro.quant import DegreeQuantConfig, DegreeQuantizer

        config = DegreeQuantConfig(bits=bits, p_max=p_max, seed=bits)
        new = DegreeQuantizer(graph, config)
        seed = DegreeQuantizerReference(graph, config)
        rng = np.random.default_rng(bits)
        n, f = graph.num_nodes, graph.feature_dim

        def check(call, *args):
            got, want = getattr(new, call)(*args), getattr(seed, call)(*args)
            assert got.data.dtype == want.data.dtype
            np.testing.assert_array_equal(got.data, want.data)

        # Several training steps move the EMA observers and draw a
        # protection mask per call; eval mode then uses what they hold.
        for training in (True, True, True, False):
            new.training = seed.training = training
            for layer in (0, 1):
                x = rng.normal(size=(n, f)).astype(np.float32)
                check("features", Tensor(np.abs(x) * (x > 0.5)), layer)
                check("features", Tensor(x), layer)
                check("weight", Tensor(rng.normal(size=(f, 16))
                                       .astype(np.float32)), layer)
                check("aggregated", Tensor(rng.normal(size=(n, 16))
                                           .astype(np.float32)), layer)
        np.testing.assert_array_equal(new.node_bitwidths(0),
                                      seed.node_bitwidths(0))
        assert new.average_bits() == seed.average_bits()
        assert new.compression_ratio() == seed.compression_ratio()

    def test_dq_int4_training_matches_seed_quantizer(self, graph):
        from repro.nn import TrainConfig, build_model, train
        from repro.quant import DegreeQuantConfig, DegreeQuantizer

        runs = []
        for cls in (DegreeQuantizer, DegreeQuantizerReference):
            hooks = cls(graph, DegreeQuantConfig(bits=4, seed=0))
            model = build_model("gcn", graph.feature_dim, graph.num_classes,
                                hooks=hooks, seed=0)
            runs.append((hooks, train(model, graph,
                                      config=TrainConfig(epochs=5))))
        (new_hooks, new), (seed_hooks, seed) = runs
        assert new.history == seed.history
        assert new.test_accuracy == seed.test_accuracy
        np.testing.assert_array_equal(new_hooks.node_bitwidths(0),
                                      seed_hooks.node_bitwidths(0))
        assert new_hooks.average_bits() == seed_hooks.average_bits()


class TestSparseUtils:
    def test_coo_view_memoizes_per_object(self):
        adj = sp.random(50, 50, density=0.1, format="csr", random_state=0)
        assert coo_view(adj) is coo_view(adj)

    def test_coo_view_invalidated_by_nnz_change(self):
        adj = sp.random(20, 20, density=0.1, format="csr", random_state=0)
        parts = np.arange(20) % 3
        cross_edge_mask(adj, parts)  # populate the cache
        with pytest.warns(sp.SparseEfficiencyWarning):
            adj[2, 3] = 1.0  # in-place insert: same object, new structure
        mask = cross_edge_mask(adj, parts)
        assert len(mask) == adj.nnz  # stale cached view would be shorter
        expected = parts[adj.tocoo().row] != parts[adj.tocoo().col]
        np.testing.assert_array_equal(mask, expected)

    def test_cross_edge_mask_matches_inline_pattern(self):
        graph, parts = random_partitioned_graph(5)
        coo = graph.adjacency.tocoo()
        expected = parts[coo.row] != parts[coo.col]
        np.testing.assert_array_equal(cross_edge_mask(graph.adjacency, parts),
                                      expected)

    def test_graph_scalar_caches(self):
        graph = synthetic_graph(100, 500, 8, 4, seed=0)
        assert graph.num_classes == graph.num_classes
        assert "num_classes" in graph._cache
        density = graph.feature_density()
        assert "feature_density" in graph._cache
        assert graph.feature_density() == density


class TestPerfCache:
    def test_cached_partition_identity_and_stats(self):
        clear_all_caches()
        graph = synthetic_graph(150, 700, 8, 4, seed=0)
        first = cached_partition(graph.adjacency, 4)
        second = cached_partition(graph.adjacency, 4)
        assert first is second
        stats = cache_stats()["partition"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_partition_matches_uncached(self):
        clear_all_caches()
        graph = synthetic_graph(150, 700, 8, 4, seed=1)
        cached = cached_partition(graph.adjacency, 4)
        direct = partition_graph(graph.adjacency, 4, seed=0,
                                 balance_factor=1.1, refine_passes=1)
        np.testing.assert_array_equal(cached.parts, direct.parts)
        assert cached.edge_cut == direct.edge_cut

    def test_fingerprint_distinguishes_content(self):
        a = sp.identity(20, format="csr")
        b = sp.identity(21, format="csr")
        c = sp.identity(20, format="csr")
        assert graph_fingerprint(a) != graph_fingerprint(b)
        assert graph_fingerprint(a) == graph_fingerprint(c)
        assert graph_fingerprint(a) == graph_fingerprint(a)  # memo path

    def test_distinct_params_get_distinct_entries(self):
        clear_all_caches()
        graph = synthetic_graph(120, 500, 8, 4, seed=2)
        cached_partition(graph.adjacency, 2)
        cached_partition(graph.adjacency, 3)
        assert len(PARTITION_CACHE) == 2

    def test_cached_load_dataset_returns_same_object(self):
        clear_all_caches()
        assert cached_load_dataset("cora", scale="tiny") is \
            cached_load_dataset("cora", scale="tiny")


class TestTimersAndBench:
    def test_timer_measures_positive_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed > 0

    def test_time_callable_counts_repeats(self):
        stats = time_callable(lambda: None, repeats=4, warmup=0)
        assert stats.as_dict()["repeats"] == 4
        assert stats.best_s <= stats.mean_s

    def test_bench_tiny_produces_valid_report(self, tmp_path):
        report = run_benchmarks(sizes=["tiny"], repeats=1)
        assert set(report) == {
            "schema", "schema_version", "machine", "sizes",
            "partition_sizes", "kernels", "train_epoch", "artifact_store",
            "fleet_replay"}
        required = {"adaptive_package_encode", "condense_run",
                    "sample_neighbors", "csr_decode", "partition_graph"}
        assert required <= set(report["kernels"])
        for kernel in required:
            row = report["kernels"][kernel]["tiny"]
            assert row["speedup"] > 0
        flows = report["train_epoch"]["flows"]
        assert set(flows) == {"fp32", "dq", "degree-aware"}
        assert all(row["bit_identical"] for row in flows.values())
        art = report["artifact_store"]
        assert art["puts_per_s"] > 0 and art["gets_per_s"] > 0
        assert art["verifies_per_s"] > 0
        assert art["replay"]["executed_warm_jobs"] == 0
        assert art["replay"]["executed_cold_jobs"] == art["replay"]["jobs"]
        fleet = report["fleet_replay"]
        assert fleet["executed_warm_jobs"] == 0
        assert fleet["executed_cold_jobs"] == fleet["jobs"]
        assert fleet["identical"] is True
        assert fleet["chaos"]["quarantined"] == 0
        assert fleet["drain_exit_code"] == 0
        # the report round-trips through JSON
        path = tmp_path / "BENCH_repro.json"
        path.write_text(json.dumps(report))
        round_trip = json.loads(path.read_text())
        assert round_trip["schema"] == "repro.perf.bench/v10"
        assert round_trip["schema_version"] == round_trip["schema"]

    def test_bench_rejects_unknown_size(self):
        with pytest.raises(ValueError):
            run_benchmarks(sizes=["galactic"])

    def test_bench_sizes_cover_acceptance_scale(self):
        nodes, edges, _, _ = BENCH_SIZES["large"]
        assert nodes >= 50_000 and edges >= 500_000
