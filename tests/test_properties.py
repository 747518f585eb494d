"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import FORMATS, AdaptivePackageFormat, PackageConfig
from repro.graphs.generators import community_graph, power_law_degrees
from repro.graphs.partition import edge_cut, partition_graph
from repro.mega import bit_serial_matmul, sparse_connection_sources, CondenseUnit
from repro.quant import quantize_integer
from repro.sim import DramModel
from repro.tensor import Tensor


@given(st.integers(0, 99999))
@settings(max_examples=20, deadline=None)
def test_partition_covers_and_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    adj, _ = community_graph(n, n * 4, 3, rng=rng)
    k = int(rng.integers(2, 6))
    res = partition_graph(adj, k, seed=seed)
    assert len(res.parts) == n
    assert res.parts.min() >= 0 and res.parts.max() < k
    assert res.edge_cut == edge_cut(adj, res.parts)


@given(st.integers(0, 99999))
@settings(max_examples=20, deadline=None)
def test_condense_unit_always_matches_vectorized(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    adj, _ = community_graph(n, n * 3, 2, rng=rng)
    parts = rng.integers(0, 3, size=n).astype(np.int64)
    unit = CondenseUnit(adj, parts)
    buffer = unit.run()
    layout = sparse_connection_sources(adj, parts)
    for p in layout:
        assert buffer[p] == layout[p].tolist()
    assert unit.remaining_eids() == 0


@given(st.integers(0, 99999))
@settings(max_examples=20, deadline=None)
def test_quantize_dequantize_error_bound_mixed_bits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    bits = rng.choice([2, 3, 4, 5, 6, 7, 8], size=n)
    scale = rng.uniform(0.01, 2.0, size=(n, 1))
    qmax = (2.0 ** bits - 1)[:, None]
    x = rng.uniform(0, scale * qmax, size=(n, 8))
    q = quantize_integer(x, scale, bits[:, None])
    err = np.abs((q * scale).astype(np.float32) - x)
    assert (err <= scale / 2 + 1e-9).all()


@given(st.integers(0, 99999))
@settings(max_examples=15, deadline=None)
def test_all_formats_agree_on_decode(seed):
    rng = np.random.default_rng(seed)
    n, f = int(rng.integers(2, 40)), int(rng.integers(2, 30))
    bits = rng.choice([2, 4, 8], size=n)
    vals = (rng.integers(0, 4, size=(n, f))
            * (rng.random((n, f)) < rng.uniform(0.05, 0.6))).astype(np.int64)
    decoded = [fmt.decode(fmt.encode(vals, bits))
               for fmt in (FORMATS[name]() for name in FORMATS)]
    for d in decoded[1:]:
        np.testing.assert_array_equal(decoded[0], d)


@given(st.integers(8, 64), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_package_capacity_times_bits_fits_payload(length_quarter, bitwidth):
    short = length_quarter * 4
    cfg = PackageConfig(short, short * 2, short * 3)
    for mode in range(3):
        cap = cfg.capacity(mode, bitwidth)
        assert cap * bitwidth <= cfg.payload_bits(mode)
        assert (cap + 1) * bitwidth > cfg.payload_bits(mode)


@given(st.integers(0, 99999))
@settings(max_examples=20, deadline=None)
def test_bit_serial_with_zero_rows_and_columns(seed):
    rng = np.random.default_rng(seed)
    n, f_in, f_out = 6, 5, 4
    bits = rng.choice([2, 8], size=n)
    x = np.zeros((n, f_in), dtype=np.int64)
    x[0] = rng.integers(0, 3, size=f_in)
    w = rng.integers(-7, 8, size=(f_in, f_out))
    w[:, 0] = 0
    np.testing.assert_array_equal(bit_serial_matmul(x, w, bits), x @ w)


@given(st.floats(1.0, 1e6), st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_dram_sequential_never_beats_useful_bytes(useful, granule_mult):
    dram = DramModel()
    t = dram.sequential_access(useful)
    assert t.transferred_bytes >= t.useful_bytes
    assert t.transferred_bytes - t.useful_bytes < dram.config.transaction_bytes


@given(st.integers(0, 99999))
@settings(max_examples=20, deadline=None)
def test_power_law_degrees_valid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 2000))
    avg = float(rng.uniform(1.5, 20.0))
    deg = power_law_degrees(n, avg, rng=rng)
    assert deg.min() >= 1
    assert deg.max() <= n - 1
    assert len(deg) == n


@given(st.integers(0, 99999))
@settings(max_examples=15, deadline=None)
def test_autograd_linearity(seed):
    """backward(a*x + b*y) distributes gradients linearly."""
    rng = np.random.default_rng(seed)
    a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
    x = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    y = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
    (x * a + y * b).sum().backward()
    np.testing.assert_allclose(x.grad, np.full(4, a, dtype=np.float32), atol=1e-5)
    np.testing.assert_allclose(y.grad, np.full(4, b, dtype=np.float32), atol=1e-5)
