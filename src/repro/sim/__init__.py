"""Shared hardware-simulation substrate: DRAM and energy."""

from .dram import DramConfig, DramModel, DramTraffic
from .energy import DEFAULT_ENERGY, EnergyBreakdown, EnergyConstants

__all__ = [
    "DramConfig",
    "DramModel",
    "DramTraffic",
    "EnergyBreakdown",
    "EnergyConstants",
    "DEFAULT_ENERGY",
]
