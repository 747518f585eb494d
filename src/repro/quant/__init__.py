"""Quantization methods: Degree-Quant (DQ) and Degree-Aware (ours).

Both fake-quantize through Eq. 2, written once in
:mod:`repro.quant.fake_quant`.

Submodules and the names below load on first attribute access, so the
configs a training job is declared with (:mod:`repro.quant.config`) do
not pull in the quantizers, the layers or the autograd engine.
"""

from .. import _lazy_attributes

# Re-exported name -> the submodule defining it.
_EXPORTS = {
    "DegreeAwareConfig": "config",
    "DegreeAwareQuantizer": "degree_aware",
    "DegreeQuantConfig": "config",
    "DegreeQuantizer": "degree_quant",
    "ETA": "degree_aware",
    "quantize_integer": "fake_quant",
    "qmax_for_bits": "fake_quant",
    "FakeQuantSTE": "fake_quant",
    "FakeQuantPerGroup": "fake_quant",
    "QuantRunResult": "config",
    "layer_dims_for": "flows",
    "run_fp32": "flows",
    "run_degree_quant": "flows",
    "run_degree_aware": "flows",
    "run_feature_magnitudes": "flows",
    "TRAIN_FLOWS": "flows",
}
_SUBMODULES = ("config", "degree_aware", "degree_quant", "fake_quant",
               "flows", "observers")

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
