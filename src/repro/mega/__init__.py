"""The MEGA accelerator: config, functional datapath, Condense-Edge,
and the cycle-approximate performance model.

The names below load on first attribute access, so the performance
model (what simulation looks up) does not pull in the functional
datapath or the Condense-Edge unit.
"""

from .. import _lazy_attributes

# Re-exported name -> the submodule defining it.
_EXPORTS = {
    "MegaConfig": "config",
    "AREA_POWER_TABLE": "config",
    "area_power_breakdown": "config",
    "MegaModel": "performance",
    "CondenseUnit": "condense",
    "sparse_connection_sources": "condense",
    "count_cross_accesses": "condense",
    "choose_num_parts": "condense",
    "bit_serial_matmul": "functional",
    "cpe_group_trace": "functional",
    "quantized_layer_forward": "functional",
    "decode_and_combine": "functional",
}
_SUBMODULES = ("condense", "config", "functional", "performance")

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
