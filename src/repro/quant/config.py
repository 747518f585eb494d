"""What a quantized training job is declared with, importable without
the array stack.

The quantizer configs, the flow result record, the names of the flows
the job engine runs, and the freezing of flow kwargs into hashable
:class:`~repro.eval.engine.TrainJob` fields.  Like
:mod:`repro.nn.config`, this module imports no numpy, so declaring a
training job — or replaying a stored :class:`QuantRunResult` — never
loads the quantizers, the layers or the autograd engine; those live in
:mod:`repro.quant.flows` and load when a job executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..nn.config import TrainConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DegreeAwareConfig", "DegreeQuantConfig", "QuantRunResult",
           "TRAIN_FLOW_NAMES", "freeze_value", "thaw_value"]


@dataclass
class DegreeAwareConfig:
    """Hyper-parameters of the Degree-Aware quantizer."""

    min_bits: float = 2.0
    max_bits: float = 8.0
    init_bits: float = 8.0
    weight_bits: int = 4
    degree_cap: int = 64            # degrees >= cap share one parameter set
    target_average_bits: float = 2.5  # sets the memory target M_target
    penalty: float = 50.0           # lambda in Eq. 5, on L_memory / M_target^2
    scale_lr: float = 0.05          # Adam lr for the log-domain scales
    bits_lr: float = 0.05           # SGD lr for the bitwidth parameters


@dataclass
class DegreeQuantConfig:
    """DQ hyper-parameters (defaults follow the DQ paper)."""

    bits: int = 4                   # features and weights
    p_min: float = 0.0
    p_max: float = 0.2
    num_layers: int = 2
    seed: int = 0


@dataclass
class QuantRunResult:
    """Accuracy + compression outcome of one quantization flow.

    Every flow puts ``best_epoch`` (the epoch whose weights were
    restored; 0 when no epoch met the flow's selection rule) and
    ``epochs_run`` in ``extras``; Degree-Aware adds ``memory_kb`` and
    ``memory_target_kb``.
    """

    method: str
    model_name: str
    dataset: str
    test_accuracy: float
    average_bits: float
    compression_ratio: float
    train_seconds: float
    node_bitwidths: Optional[np.ndarray] = None
    node_scales: Optional[np.ndarray] = None
    extras: Dict[str, float] = field(default_factory=dict)


# Keys of :data:`repro.quant.flows.TRAIN_FLOWS`: the flows a TrainJob
# may name.
TRAIN_FLOW_NAMES = ("fp32", "dq", "degree-aware", "feature-magnitudes")


# ----------------------------------------------------------------------
# Declarative flow-kwarg freezing (hashable TrainJob fields <-> configs)
# ----------------------------------------------------------------------

# Dataclass configs a frozen TrainJob may carry.  Registered by name so
# the frozen form stays a pure tuple of primitives (hashable, stable
# under repr for content keys, picklable for pool workers).
_FROZEN_DATACLASSES = {
    "TrainConfig": TrainConfig,
    "DegreeAwareConfig": DegreeAwareConfig,
    "DegreeQuantConfig": DegreeQuantConfig,
}

_DC_TAG = "__dataclass__"
_DICT_TAG = "__mapping__"


def freeze_value(value):
    """Convert a flow-kwarg value into a hashable, content-stable form."""
    if type(value).__name__ in _FROZEN_DATACLASSES and hasattr(value, "__dict__"):
        fields = tuple(sorted((k, freeze_value(v))
                              for k, v in vars(value).items()))
        return (_DC_TAG, type(value).__name__, fields)
    if isinstance(value, dict):
        # Tagged so a dict thaws back to a dict and can never collide
        # with a frozen list of pairs.
        return (_DICT_TAG, tuple(sorted(
            (k, freeze_value(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(v) for v in value)
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    raise TypeError(
        f"flow kwarg of type {type(value).__name__!r} cannot be frozen into "
        f"a TrainJob; pass primitives or one of {sorted(_FROZEN_DATACLASSES)}")


def thaw_value(value):
    """Inverse of :func:`freeze_value` (reconstructs registered configs)."""
    if isinstance(value, tuple) and len(value) == 3 and value[0] == _DC_TAG:
        cls = _FROZEN_DATACLASSES[value[1]]
        return cls(**{k: thaw_value(v) for k, v in value[2]})
    if isinstance(value, tuple) and len(value) == 2 and value[0] == _DICT_TAG:
        return {k: thaw_value(v) for k, v in value[1]}
    if isinstance(value, tuple):
        return tuple(thaw_value(v) for v in value)
    return value
