"""repro — reproduction of "MEGA: A Memory-Efficient GNN Accelerator
Exploiting Degree-Aware Mixed-Precision Quantization" (HPCA 2024).

Public API tour::

    from repro.graphs import load_dataset
    from repro.quant import run_degree_aware
    from repro.mega import MegaModel
    from repro.baselines import build_baseline
    from repro.sim.workload import build_workload
    from repro import eval as experiments
    from repro.registry import ACCELERATORS, DATASETS, SUITES, EXPERIMENTS
    from repro.report import run_experiment

Everything dispatchable by name — accelerators, datasets/scenarios,
workload suites, experiments — lives in the registries, which import
the subsystems that register the built-in entries on their first
lookup.  ``python -m repro`` is the CLI over them.

Subpackages load on first attribute access (``repro.graphs`` imports
nothing until used), so an entry point pays only for what it runs.

See README.md for the quickstart and its "Architecture" section for the
system map.
"""

import importlib
import sys
from typing import Mapping, Sequence

__version__ = "1.0.0"

_SUBPACKAGES = ("graphs", "tensor", "nn", "quant", "formats", "sim", "mega",
                "baselines", "eval", "registry", "report", "paper_data")

__all__ = [*_SUBPACKAGES, "__version__"]


def _lazy_attributes(package: str, exports: Mapping[str, str],
                     submodules: Sequence[str]):
    """PEP 562 module ``__getattr__`` and ``__dir__`` for ``package``: a
    name in ``submodules`` imports that submodule, a name in ``exports``
    is looked up in the submodule it maps to, and ``dir()`` lists both
    before they load."""
    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(importlib.import_module(f"{package}.{submodule}"), name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *exports, *submodules})
    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_attributes(__name__, {}, _SUBPACKAGES)
