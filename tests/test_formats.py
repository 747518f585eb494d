"""Tests for the sparse storage formats, incl. property-based roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import (
    FORMATS,
    AdaptivePackageFormat,
    BitmapFormat,
    CooFormat,
    CsrFormat,
    DenseFormat,
    HEADER_BITS,
    PackageConfig,
    ideal_bits,
)
from repro.formats.adaptive_package import node_index_bits
from repro.formats.base import bits_needed


def random_quantized_matrix(n, f, density, seed, bit_choices=(2, 3, 4, 8)):
    rng = np.random.default_rng(seed)
    bits = rng.choice(bit_choices, size=n)
    qmax = 2 ** bits - 1
    vals = rng.integers(0, 256, size=(n, f)) * (rng.random((n, f)) < density)
    vals = np.minimum(vals, qmax[:, None]).astype(np.int64)
    return vals, bits.astype(np.int64)


@pytest.mark.parametrize("name", sorted(FORMATS))
class TestAllFormats:
    def test_roundtrip(self, name):
        vals, bits = random_quantized_matrix(60, 40, 0.3, seed=0)
        fmt = FORMATS[name]()
        np.testing.assert_array_equal(fmt.decode(fmt.encode(vals, bits)), vals)

    def test_measure_matches_encode(self, name):
        vals, bits = random_quantized_matrix(80, 32, 0.25, seed=1)
        fmt = FORMATS[name]()
        encoded_bits = fmt.encode(vals, bits).report().total_bits
        measured = fmt.measure((vals != 0).sum(axis=1), bits, vals.shape[1])
        assert measured.total_bits == encoded_bits

    def test_empty_matrix(self, name):
        vals = np.zeros((5, 8), dtype=np.int64)
        bits = np.full(5, 4, dtype=np.int64)
        fmt = FORMATS[name]()
        np.testing.assert_array_equal(fmt.decode(fmt.encode(vals, bits)), vals)

    def test_invalid_bitwidth_rejected(self, name):
        vals = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            FORMATS[name]().encode(vals, np.array([0, 4, 4]))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_adaptive_package_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    f = int(rng.integers(1, 40))
    density = float(rng.uniform(0, 0.8))
    vals, bits = random_quantized_matrix(n, f, density, seed=seed)
    fmt = AdaptivePackageFormat()
    encoded = fmt.encode(vals, bits)
    np.testing.assert_array_equal(fmt.decode(encoded), vals)
    measured = fmt.measure((vals != 0).sum(axis=1), bits, f)
    assert measured.total_bits == encoded.report().total_bits


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_ideal_is_lower_bound_on_values(seed):
    rng = np.random.default_rng(seed)
    vals, bits = random_quantized_matrix(int(rng.integers(2, 60)), 24, 0.3, seed)
    nnz = (vals != 0).sum(axis=1)
    ideal = ideal_bits(nnz, bits)
    ap = AdaptivePackageFormat().measure(nnz, bits, 24)
    # Packages alone can pad, never store fewer value bits than ideal.
    assert ap.breakdown["packages"] >= ideal - ap.breakdown["padding"] - \
        ap.breakdown["headers"]


class TestAdaptivePackageInternals:
    def test_header_is_five_bits(self):
        assert HEADER_BITS == 5

    @pytest.mark.parametrize("lengths,level", [
        ((1, 1, 1), "short=1"),
        ((64, HEADER_BITS, 192), "medium=5"),
        ((64, 128, 0), "long=0"),
    ])
    def test_lengths_must_exceed_header(self, lengths, level):
        with pytest.raises(ValueError, match=level):
            PackageConfig(*lengths)

    def test_smallest_legal_lengths(self):
        length = HEADER_BITS + 1
        cfg = PackageConfig(length, length, length)
        assert cfg.capacity(2, 1) == 1

    def test_capacity(self):
        cfg = PackageConfig()
        assert cfg.capacity(0, 2) == (64 - 5) // 2
        assert cfg.capacity(2, 8) == (192 - 5) // 8

    def test_smallest_mode(self):
        cfg = PackageConfig()
        assert cfg.smallest_mode_for(3, 2) == 0
        assert cfg.smallest_mode_for(40, 2) == 1
        assert cfg.smallest_mode_for(90, 2) == 2

    def test_bitwidth_change_starts_new_package(self):
        vals = np.ones((2, 4), dtype=np.int64)
        bits = np.array([2, 4])
        encoded = AdaptivePackageFormat().encode(vals, bits)
        assert encoded.num_packages == 2
        assert encoded.packages[0].bitwidth == 2
        assert encoded.packages[1].bitwidth == 4

    def test_same_bitwidth_nodes_share_package(self):
        vals = np.ones((2, 4), dtype=np.int64)
        bits = np.array([2, 2])
        encoded = AdaptivePackageFormat().encode(vals, bits)
        assert encoded.num_packages == 1
        assert len(encoded.packages[0].values) == 8

    def test_long_package_emitted_when_full(self):
        cfg = PackageConfig()
        cap = cfg.capacity(2, 2)
        vals = np.ones((1, cap + 1), dtype=np.int64)
        encoded = AdaptivePackageFormat(cfg).encode(vals, np.array([2]))
        assert encoded.num_packages == 2
        assert encoded.packages[0].mode == 2

    def test_padding_accounting(self):
        vals = np.ones((1, 3), dtype=np.int64)
        encoded = AdaptivePackageFormat().encode(vals, np.array([2]))
        pkg = encoded.packages[0]
        assert pkg.mode == 0
        assert encoded.report().breakdown["padding"] == 64 - 5 - 3 * 2

    def test_small_values_use_short_mode(self):
        vals = np.zeros((1, 10), dtype=np.int64)
        vals[0, :2] = 1
        encoded = AdaptivePackageFormat().encode(vals, np.array([3]))
        assert encoded.packages[0].mode == 0

    def test_custom_lengths_respected(self):
        cfg = PackageConfig(16, 24, 32)
        vals = np.ones((1, 20), dtype=np.int64)
        encoded = AdaptivePackageFormat(cfg).encode(vals, np.array([2]))
        for pkg in encoded.packages:
            assert (HEADER_BITS + len(pkg.values) * pkg.bitwidth
                    <= cfg.lengths[pkg.mode])
        assert encoded.report().breakdown["packages"] == sum(
            cfg.lengths[pkg.mode] for pkg in encoded.packages)

    def test_package_count_helper(self):
        vals, bits = random_quantized_matrix(50, 30, 0.3, seed=2)
        fmt = AdaptivePackageFormat()
        nnz = (vals != 0).sum(axis=1)
        report = fmt.measure(nnz, bits, vals.shape[1])
        assert report.breakdown["num_packages"] == fmt.encode(vals, bits).num_packages


class TestHybridIndex:
    def test_dense_node_uses_bitmap(self):
        # nnz * log2(F) > F -> positional bitmap chosen.
        bits = node_index_bits(np.array([100]), 128)
        assert bits[0] == 128 + 1

    def test_sparse_node_uses_coordinates(self):
        bits = node_index_bits(np.array([2]), 61278)
        assert bits[0] == 2 * bits_needed(61278) + 1

    def test_nell_scale_index_far_below_bitmap(self):
        nnz = np.full(1000, 8)
        total = node_index_bits(nnz, 61278).sum()
        assert total < 1000 * 61278 / 100


class TestFormatComparisons:
    def test_fig4_ordering_mixed_precision(self):
        """Adaptive-Package beats Bitmap/CSR/COO/Dense on mixed-precision
        sparse features (the Fig. 4 claim)."""
        vals, bits = random_quantized_matrix(300, 128, 0.2, seed=3,
                                             bit_choices=(2, 2, 3, 8))
        nnz = (vals != 0).sum(axis=1)
        sizes = {name: FORMATS[name]().measure(nnz, bits, 128).total_bits
                 for name in FORMATS}
        assert sizes["adaptive-package"] < sizes["bitmap"]
        assert sizes["bitmap"] < sizes["dense"]
        assert sizes["adaptive-package"] < sizes["csr"]
        assert sizes["adaptive-package"] < sizes["coo"]

    def test_near_ideal(self):
        vals, bits = random_quantized_matrix(500, 256, 0.3, seed=4,
                                             bit_choices=(2, 3))
        nnz = (vals != 0).sum(axis=1)
        ap = AdaptivePackageFormat().measure(nnz, bits, 256)
        ratio = ap.total_bits / ideal_bits(nnz, bits)
        assert ratio < 2.5  # paper Fig. 4: near-ideal, index included

    def test_report_breakdown_sums(self):
        vals, bits = random_quantized_matrix(100, 64, 0.3, seed=5)
        rep = CsrFormat().encode(vals, bits).report()
        assert sum(rep.breakdown.values()) == rep.total_bits
