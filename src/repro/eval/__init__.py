"""Experiment harness regenerating the paper's tables and figures.

Submodules and the names below load on first attribute access, so
``from repro.eval.engine import SimJob`` declares jobs without loading
the experiment definitions or numpy.
"""

from .. import _lazy_attributes

# Re-exported name -> the submodule defining it.
_EXPORTS = {
    "SimJob": "engine",
    "TrainJob": "engine",
    "SweepEngine": "engine",
    "get_engine": "engine",
    "set_engine": "engine",
    "clear_caches": "experiments",
    "PAPER_WORKLOADS": "experiments",
    "QUICK_WORKLOADS": "experiments",
    "SCALE_SWEEP_WORKLOADS": "experiments",
    "BASELINE_NAMES": "experiments",
    "get_workload": "experiments",
    "simulate": "experiments",
    "geomean": "reporting",
    "format_table": "reporting",
    "print_table": "reporting",
}
_SUBMODULES = ("accuracy", "engine", "experiments", "journal", "reporting",
               "supervise")

__all__ = [*_EXPORTS, *_SUBMODULES]
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
