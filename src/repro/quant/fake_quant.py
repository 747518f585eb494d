"""Quantization primitives and straight-through estimators.

Implements Eq. 2 of the paper: symmetric signed quantization

    q = sign(x) * min(floor(|x| / alpha + 0.5), 2^(b-1) - 1)

plus the gradient rules that make scale (LSQ, Esser et al. [13]) and
bitwidth (parametrized continuous bitwidth, Uhlich et al. [48]) *learnable*:

- w.r.t. ``x``: straight-through inside the clipping range, zero outside;
- w.r.t. ``alpha``: LSQ gradient ``(q - x/alpha)`` inside, ``±qmax`` when
  clipped, with the 1/sqrt(n*qmax) LSQ gradient scaling;
- w.r.t. ``b``: only clipped values feel the bitwidth — the clip level
  moves by ``alpha * ln2 * 2^(b-1)`` per unit of ``b``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Function, Tensor

__all__ = [
    "quantize_integer",
    "dequantize",
    "qmax_for_bits",
    "FakeQuantPerGroup",
    "FakeQuantPerColumn",
]

_LN2 = float(np.log(2.0))


def qmax_for_bits(bits, unsigned: bool = False) -> np.ndarray:
    """Largest representable magnitude for symmetric ``bits``.

    Non-negative tensors (bag-of-words inputs, post-ReLU feature maps)
    use the unsigned range ``2^b - 1``; signed tensors use
    ``2^(b-1) - 1`` per Eq. 2.
    """
    bits = np.asarray(bits)
    exponent = np.round(bits) if unsigned else np.round(bits) - 1
    return (2.0 ** exponent - 1).astype(np.float64)


def quantize_integer(x: np.ndarray, scale: np.ndarray, bits,
                     unsigned: bool = None) -> np.ndarray:
    """Integer codes per Eq. 2 (round-half-away-from-zero + clip).

    ``unsigned=None`` auto-detects: a tensor with no negative entries is
    quantized to the unsigned range for double the resolution.
    """
    if unsigned is None:
        unsigned = bool(np.min(x) >= 0)
    qmax = qmax_for_bits(bits, unsigned=unsigned)
    v = np.abs(x) / scale
    q = np.minimum(np.floor(v + 0.5), qmax)
    return (np.sign(x) * q).astype(np.int64)


def dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Real values back from integer codes."""
    return (q * scale).astype(np.float32)


class FakeQuantSTE(Function):
    """Fake quantization with a *fixed* (observer-provided) scale.

    Inputs: ``x``, ``scale`` (scalar or broadcastable array), ``bits``
    (scalar).  Straight-through gradient inside the clipping range,
    zero outside.  Used by DQ and the uniform baseline.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scale: np.ndarray, bits: np.ndarray) -> np.ndarray:
        b = round(float(np.max(bits)))
        qmax = float(2.0 ** b - 1) if np.min(x) >= 0 else float(2.0 ** (b - 1) - 1)
        s = np.maximum(scale, 1e-12)
        v = x / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        ctx["in_range"] = np.abs(v) <= qmax
        return (q * s).astype(np.float32)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        return grad * ctx["in_range"], None, None


class FakeQuantPerGroup(Function):
    """Fake-quantize rows of ``x`` with per-group scale and bitwidth.

    Inputs: ``x (N, F)``, ``scales (G,)``, ``bits (G,)`` and the
    per-row group index (passed via ``ctx`` setup in the wrapper).
    Returns the dequantized tensor; gradients flow to ``x``, ``scales``
    and ``bits``.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scales: np.ndarray, bits: np.ndarray,
                groups: np.ndarray, min_bits: np.ndarray, max_bits: np.ndarray) -> np.ndarray:
        groups = groups.astype(np.int64)
        unsigned = bool(np.min(x) >= 0)
        b_cont = np.clip(bits, min_bits, max_bits)
        b_int = np.round(b_cont)
        qmax_g = 2.0 ** b_int - 1 if unsigned else 2.0 ** (b_int - 1) - 1
        s_g = np.maximum(scales, 1e-8)

        s = s_g[groups][:, None]
        qmax = qmax_g[groups][:, None]
        v = x / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        out = (q * s).astype(np.float32)

        ctx["v"] = v
        ctx["q"] = q
        ctx["qmax"] = qmax
        ctx["s"] = s
        ctx["groups"] = groups
        ctx["b_cont"] = b_cont
        ctx["num_groups"] = len(scales)
        ctx["clipped_at_min"] = scales <= 1e-8
        ctx["unsigned"] = unsigned
        ctx["bits_at_edge"] = (bits <= min_bits) | (bits >= max_bits)
        return out

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        v, q, qmax, s = ctx["v"], ctx["q"], ctx["qmax"], ctx["s"]
        groups, num_groups = ctx["groups"], ctx["num_groups"]
        in_range = np.abs(v) <= qmax

        grad_x = grad * in_range

        # LSQ scale gradient with per-group gradient scaling.
        elem_s = grad * np.where(in_range, q - v, np.sign(v) * qmax)
        grad_s = np.zeros(num_groups)
        np.add.at(grad_s, groups, elem_s.sum(axis=1))
        counts = np.zeros(num_groups)
        np.add.at(counts, groups, v.shape[1])
        qmax_g = np.zeros(num_groups)
        np.maximum.at(qmax_g, groups, qmax[:, 0])
        lsq_scale = 1.0 / np.sqrt(np.maximum(counts * np.maximum(qmax_g, 1.0), 1.0))
        grad_s = grad_s * lsq_scale
        grad_s[ctx["clipped_at_min"]] = np.minimum(grad_s[ctx["clipped_at_min"]], 0.0)

        # Bitwidth gradient: clipped values sit at +/- s*qmax(b); the
        # clip level moves by s*ln2*2^b (unsigned) or s*ln2*2^(b-1).
        b_row = ctx["b_cont"][groups][:, None]
        exponent = b_row if ctx["unsigned"] else b_row - 1
        elem_b = grad * np.where(in_range, 0.0, np.sign(v) * s * _LN2 * 2.0 ** exponent)
        grad_b = np.zeros(num_groups)
        np.add.at(grad_b, groups, elem_b.sum(axis=1))
        grad_b = grad_b * lsq_scale

        return grad_x, grad_s, grad_b, None, None, None


class FakeQuantPerColumn(Function):
    """Fake-quantize a matrix with one learnable scale per column.

    Used for weights (``beta_j`` per output column, fixed 4 bits) and for
    the combined features ``B = XW`` (Sec. IV).
    """

    @staticmethod
    def forward(ctx: dict, w: np.ndarray, scales: np.ndarray, bits: float) -> np.ndarray:
        b = round(float(bits))
        qmax = float(2.0 ** b - 1) if np.min(w) >= 0 else float(2.0 ** (b - 1) - 1)
        s = np.maximum(scales, 1e-8)[None, :]
        v = w / s
        q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
        out = (q * s).astype(np.float32)
        ctx.update(v=v, q=q, qmax=qmax, n=w.shape[0])
        return out

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        v, q, qmax = ctx["v"], ctx["q"], ctx["qmax"]
        in_range = np.abs(v) <= qmax
        grad_w = grad * in_range
        elem_s = grad * np.where(in_range, q - v, np.sign(v) * qmax)
        lsq = 1.0 / np.sqrt(max(ctx["n"] * qmax, 1.0))
        grad_s = elem_s.sum(axis=0) * lsq
        return grad_w, grad_s, None
