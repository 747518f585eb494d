"""GNN models, layers and the training loop.

Submodules and the names below load on first attribute access, so
``from repro.nn import TrainConfig`` imports only :mod:`repro.nn.config`
(no numpy), not the layers or the autograd engine.
"""

from .. import _lazy_attributes

# Re-exported name -> the submodule defining it.
_EXPORTS = {
    "Module": "module",
    "QuantHooks": "layers",
    "Linear": "layers",
    "GraphConv": "layers",
    "GINConv": "layers",
    "SageConv": "layers",
    "GATConv": "layers",
    "GCN": "models",
    "GIN": "models",
    "GraphSage": "models",
    "GAT": "models",
    "build_model": "models",
    "TrainConfig": "config",
    "TrainResult": "training",
    "train": "training",
    "evaluate": "training",
    "evaluate_masks": "training",
    "train_multiple_seeds": "training",
}
_SUBMODULES = ("config", "layers", "models", "module", "training")

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
