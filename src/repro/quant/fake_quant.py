"""Eq. 2 of the paper, written once, and its straight-through estimators.

Symmetric quantization with round-half-away-from-zero:

    q = sign(x) * min(floor(|x| / alpha + 0.5), qmax)

The clip level ``qmax`` is ``2^(b-1) - 1`` for signed tensors and
``2^b - 1`` for non-negative ones (bag-of-words inputs, post-ReLU
feature maps), which get the unsigned range. :func:`qmax_for_bits` is
the only place that formula is written, and ``_round_clip`` the only
place the rounding is; :func:`quantize_integer` (integer codes for the
accelerator), :class:`FakeQuantSTE` (one scale per column, or one shared
scale) and :class:`FakeQuantPerGroup` (a scale and a bitwidth per group
of rows) all call both.

Gradients go only to the inputs that need one (``ctx["needs_grad"]``),
which makes scale (LSQ, Esser et al. [13]) and bitwidth (parametrized
continuous bitwidth, Uhlich et al. [48]) *learnable*:

- w.r.t. ``x``: straight-through inside the clipping range, zero outside;
- w.r.t. ``alpha``: LSQ gradient ``(q - x/alpha)`` inside, ``±qmax`` when
  clipped, with the 1/sqrt(n*qmax) LSQ gradient scaling; a fixed
  (observer) scale gets none;
- w.r.t. ``b`` (:class:`FakeQuantPerGroup` only): only clipped values
  feel the bitwidth — the clip level moves by ``alpha * ln2 * 2^(b-1)``
  per unit of ``b``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Function

__all__ = [
    "quantize_integer",
    "qmax_for_bits",
    "FakeQuantSTE",
    "FakeQuantPerGroup",
]

_LN2 = float(np.log(2.0))


def qmax_for_bits(bits, unsigned: bool = False) -> np.ndarray:
    """Clip level of Eq. 2: ``2^b - 1`` unsigned, ``2^(b-1) - 1`` signed.

    Float ``bits`` keep their dtype, so a float32 caller stays in
    float32; integer ``bits`` give float64.
    """
    bits = np.asarray(bits)
    exponent = np.round(bits) if unsigned else np.round(bits) - 1
    return 2.0 ** exponent - 1


def _unsigned(x: np.ndarray) -> bool:
    """Whether ``x`` is quantized to the unsigned range (no negatives)."""
    return bool(np.min(x) >= 0)


def _round_clip(x: np.ndarray, s, qmax) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 2: ``v = x / s`` and its rounded, clipped integer code ``q``."""
    v = x / s
    q = np.sign(v) * np.minimum(np.floor(np.abs(v) + 0.5), qmax)
    return v, q


def quantize_integer(x: np.ndarray, scale: np.ndarray, bits,
                     unsigned: bool = None) -> np.ndarray:
    """Integer codes per Eq. 2 (round-half-away-from-zero + clip).

    ``unsigned=None`` auto-detects: a tensor with no negative entries is
    quantized to the unsigned range for double the resolution.
    """
    if unsigned is None:
        unsigned = _unsigned(x)
    _, q = _round_clip(x, scale, qmax_for_bits(bits, unsigned))
    return q.astype(np.int64)


class FakeQuantSTE(Function):
    """Fake-quantize ``x (N, F)`` with one scale per column, or one
    shared scale, at a scalar bitwidth.

    A scale that requires a gradient is learned (Degree-Aware's weights
    and combined features ``B = XW``, ``beta_j`` per column, Sec. IV) and
    gets the LSQ gradient; a fixed one (DQ's EMA observers) gets none,
    so forward saves only the in-range mask. ``x`` gets the
    straight-through gradient either way.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scale: np.ndarray, bits: np.ndarray) -> np.ndarray:
        qmax = float(qmax_for_bits(bits, _unsigned(x)))
        s = np.maximum(scale, 1e-8)
        v, q = _round_clip(x, s, qmax)
        ctx["in_range"] = np.abs(v) <= qmax
        if ctx["needs_grad"][1]:
            ctx.update(v=v, q=q, qmax=qmax)
        return (q * s).astype(np.float32)

    @staticmethod
    def backward(ctx: dict, grad: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:
        in_range = ctx["in_range"]
        grad_s = None
        if ctx["needs_grad"][1]:
            v, q, qmax = ctx["v"], ctx["q"], ctx["qmax"]
            elem_s = grad * np.where(in_range, q - v, np.sign(v) * qmax)
            lsq = 1.0 / np.sqrt(max(v.shape[0] * qmax, 1.0))
            grad_s = elem_s.sum(axis=0) * lsq
        return grad * in_range, grad_s, None


class FakeQuantPerGroup(Function):
    """Fake-quantize rows of ``x`` with per-group scale and bitwidth.

    Inputs: ``x (N, F)``, ``scales (G,)``, ``bits (G,)``, the per-row
    group index ``groups (N,)`` and the bitwidth bounds ``min_bits``,
    ``max_bits (G,)``. Returns the dequantized tensor; gradients flow to
    ``x``, ``scales`` and ``bits``.
    """

    @staticmethod
    def forward(ctx: dict, x: np.ndarray, scales: np.ndarray, bits: np.ndarray,
                groups: np.ndarray, min_bits: np.ndarray, max_bits: np.ndarray) -> np.ndarray:
        groups = groups.astype(np.int64)
        unsigned = _unsigned(x)
        b_cont = np.clip(bits, min_bits, max_bits)
        s = np.maximum(scales, 1e-8)[groups][:, None]
        qmax = qmax_for_bits(b_cont, unsigned)[groups][:, None]
        v, q = _round_clip(x, s, qmax)
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
