"""Training hyper-parameters, importable without the array stack.

A :class:`~repro.eval.engine.TrainJob` is declared with a
:class:`TrainConfig`, so this module imports no numpy: declaring or
replaying a training job never loads what executing one needs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrainConfig"]


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 50
    grad_clip: float = 5.0
    verbose: bool = False
