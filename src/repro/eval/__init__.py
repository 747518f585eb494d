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
    "full_comparison": "experiments",
    "speedup_table": "experiments",
    "dram_table": "experiments",
    "energy_table": "experiments",
    "stall_table": "experiments",
    "ablation_fig19": "experiments",
    "locality_study": "experiments",
    "package_length_study": "experiments",
    "cr_sensitivity": "experiments",
    "original_config_comparison": "experiments",
    "energy_breakdown_fig18": "experiments",
    "accuracy_comparison": "accuracy",
    "accuracy_grid": "accuracy",
    "dq_bitwidth_sweep": "accuracy",
    "degree_feature_magnitudes": "accuracy",
    "geomean": "reporting",
    "format_table": "reporting",
    "print_table": "reporting",
    "normalize_to": "reporting",
}
_SUBMODULES = ("accuracy", "engine", "experiments", "journal", "reporting",
               "supervise")

__all__ = [*_EXPORTS, *_SUBMODULES]
__getattr__, __dir__ = _lazy_attributes(__name__, _EXPORTS, _SUBMODULES)
