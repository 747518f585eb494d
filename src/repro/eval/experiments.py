"""Experiment runners regenerating every evaluation table and figure.

Each artifact of the paper's Sec. VI (``python -m repro list
experiments`` prints the index) is declared as an
:class:`~repro.registry.ExperimentSpec` — a job-batch builder plus a
reducer — registered with the experiment registry and executed through
:func:`repro.report.run_experiment`, which wraps the outcome in a
schema'd :class:`~repro.report.Artifact` (the CLI's ``repro run
<experiment>`` path).  That is the one way to run one, and the spec's
``defaults`` the one place its parameters are declared::

    run_experiment("speedup_table", workloads=QUICK_WORKLOADS).value

Workload suites (``paper``, ``quick``, ``scale-sweep``, ``smoke``) are
registered here too; any spec with a ``suite_param`` can be re-pointed
at a suite from the CLI (``--suite``).

Every spec here executes under the engine's supervision layer
(:mod:`repro.eval.supervise`): per-job deadlines, bounded retries, and
checkpoint-as-you-go persistence.  The chaos suite
(``tests/test_chaos.py``) pins each registered spec to a
fault-injection run (:mod:`repro.faults`) that must produce values
bit-identical to a fault-free sweep — a new spec must join that map to
land.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

from ..perf.cache import cached_load_dataset
from ..registry import (EXPERIMENTS, SUITES, ExperimentSpec, SuiteEntry,
                        get_dataset)
from ..sim.accelerator import SimReport
from ..sim.dram import DramModel
from .engine import SimJob, _workload, get_engine
from .reporting import geomean

if TYPE_CHECKING:
    from ..sim.workload import Workload

__all__ = [
    "PAPER_WORKLOADS",
    "QUICK_WORKLOADS",
    "SCALE_SWEEP_WORKLOADS",
    "get_workload",
    "simulate",
    "clear_caches",
]

# The paper's ten evaluation workloads (Fig. 14/16/17 x-axis).
PAPER_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("cora", "gcn"), ("citeseer", "gcn"), ("pubmed", "gcn"),
    ("nell", "gcn"), ("reddit", "gcn"),
    ("cora", "gin"), ("citeseer", "gin"), ("pubmed", "gin"),
    ("cora", "graphsage"), ("reddit", "graphsage"),
)

# A fast subset used by default in tests / quick benchmark runs.
QUICK_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("cora", "gcn"), ("citeseer", "gcn"), ("pubmed", "gcn"),
    ("cora", "gin"), ("cora", "graphsage"),
)

# Registered synthetic scale-sweep scenarios (10k-50k node graphs by
# default; the 100k/500k datasets are registered for explicit use).
SCALE_SWEEP_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("powerlaw-10k", "gcn"), ("powerlaw-50k", "gcn"),
    ("community-10k", "gcn"), ("community-50k", "gin"),
)

BASELINE_NAMES = ("hygcn", "gcnax", "grow", "sgcn")

SUITES.add("paper", SuiteEntry(
    "paper", PAPER_WORKLOADS,
    "the paper's ten evaluation workloads (Fig. 14/16/17)"))
SUITES.add("quick", SuiteEntry(
    "quick", QUICK_WORKLOADS,
    "fast five-workload subset for tests and CI"))
SUITES.add("smoke", SuiteEntry(
    "smoke", (("cora", "gcn"), ("citeseer", "gcn")),
    "two tiny workloads for the fastest possible end-to-end check"))
SUITES.add("scale-sweep", SuiteEntry(
    "scale-sweep", SCALE_SWEEP_WORKLOADS,
    "synthetic power-law/community scenarios at 10k-50k nodes"))
SUITES.add("scale-sweep-10k", SuiteEntry(
    "scale-sweep-10k",
    (("powerlaw-10k", "gcn"), ("community-10k", "gcn")),
    "the 10k-node scale scenarios only (CI-sized scale smoke run)"))


def get_workload(dataset: str, model: str, precision: str) -> Workload:
    """The simulated workload of one recipe, memoized in memory with
    the ones the engine's simulation jobs build."""
    return _workload(dataset, model, precision, 0, None)


def simulate(accelerator: str, dataset: str, model: str,
             **mega_kwargs) -> SimReport:
    """Simulate one (accelerator, workload) pair through the engine.

    MEGA consumes the degree-aware mixed-precision workload; the 8-bit
    variants consume uniform INT8; everything else runs FP32 — the
    pairing each accelerator's registry entry declares (exactly the
    paper's setting).
    """
    return get_engine().simulate(accelerator, dataset, model, **mega_kwargs)


def clear_caches() -> None:
    """Reset every in-process sweep cache: engine memory (job results,
    tables, workloads), datasets, partitions and locality structures.

    Disk entries survive (they are content-keyed and code-versioned);
    this drops the in-process state so tests and benchmarks cannot leak
    sweep results into each other.
    """
    get_engine().clear_memory()


# ----------------------------------------------------------------------
# Spec builders/reducers (the declarative form of every runner)
# ----------------------------------------------------------------------

def _grid_jobs(workloads, accelerators) -> Dict[tuple, SimJob]:
    return {(dataset, model, name): SimJob.from_call(name, dataset, model)
            for dataset, model in workloads for name in accelerators}


def _full_comparison_jobs(workloads, accelerators):
    return _grid_jobs(workloads, accelerators)


def _full_comparison_reduce(results: Mapping, workloads, accelerators):
    return {
        (dataset, model): {
            name: results[(dataset, model, name)] for name in accelerators
        }
        for dataset, model in workloads
    }


def _ratio_jobs(workloads, accelerators):
    return _grid_jobs(workloads, tuple(accelerators) + ("mega",))


def _ratio_reduce(ratio, results: Mapping, workloads, accelerators):
    """Per-workload ``ratio(mega, baseline)`` (a ``SimReport`` method
    called on MEGA's report), plus the geomean row."""
    table: Dict[str, Dict[str, float]] = {}
    for dataset, model in workloads:
        mega = results[(dataset, model, "mega")]
        table[f"{dataset}-{model}"] = {
            name: ratio(mega, results[(dataset, model, name)])
            for name in accelerators}
    table["geomean"] = {
        name: geomean(row[name] for key, row in table.items() if key != "geomean")
        for name in accelerators
    }
    return table


def _stall_jobs(datasets, accelerators):
    return {(dataset, name): SimJob.from_call(name, dataset, "gcn")
            for dataset in datasets for name in accelerators}


def _stall_reduce(results: Mapping, datasets, accelerators):
    return {
        dataset: {
            name: results[(dataset, name)].stall_fraction
            for name in accelerators
        }
        for dataset in datasets
    }


def _ablation_jobs(dataset, model):
    return {
        "hygcn-c": SimJob.from_call("hygcn-c", dataset, model),
        "quant+bitmap": SimJob.from_call("mega-bitmap", dataset, model),
        "+adaptive-package": SimJob.from_call("mega-no-condense", dataset, model),
        "+condense-edge": SimJob.from_call("mega", dataset, model),
    }


def _ablation_reduce(results: Mapping, dataset, model):
    return dict(results)


def _locality_reduce(results: Mapping, dataset, feature_dim, feature_bits,
                     strategies, num_parts):
    engine = get_engine()

    def compute() -> Dict[str, Dict[str, float]]:
        from ..mega.config import MegaConfig
        from ..sim.locality import aggregation_locality_traffic

        graph = cached_load_dataset(dataset, scale="sim")
        dram = DramModel()
        cfg = MegaConfig()  # the study runs at MEGA's Table IV buffers
        feat_bytes = feature_dim * feature_bits / 8.0
        agg_buffer = int(cfg.aggregation_buffer_kb * 1024)
        buffer_nodes = max(int(agg_buffer / (feature_dim * 2.0)), 1)
        parts_count = num_parts
        if parts_count is None:
            parts_count = max(int(np.ceil(graph.num_nodes / buffer_nodes)), 2)
        out: Dict[str, Dict[str, float]] = {}
        for strategy in strategies:
            traffic = aggregation_locality_traffic(
                graph.adjacency, feat_bytes, dram, strategy=strategy,
                num_parts=parts_count, buffer_nodes=buffer_nodes,
                combination_buffer_bytes=int(cfg.combination_buffer_kb * 1024),
                sparse_buffer_bytes=int(cfg.sparse_buffer_kb * 1024),
            )
            out[strategy] = {
                "internal_mb": traffic.internal.total_mb,
                "cross_mb": (traffic.cross + traffic.reorder_writes).total_mb,
                "total_mb": traffic.total.total_mb,
            }
        return out

    key = ("locality_study", engine.dataset_fingerprint(dataset),
           get_dataset(dataset).cache_token, feature_dim, feature_bits,
           tuple(strategies), num_parts)
    return engine.cached_table(key, compute)


def _package_length_reduce(results: Mapping, datasets, settings):
    from ..formats import AdaptivePackageFormat, PackageConfig

    engine = get_engine()

    def one_dataset(dataset: str) -> Dict[Tuple[int, int, int], float]:
        workload = get_workload(dataset, "gcn", "degree-aware")
        layer = workload.layers[0]
        bits = np.minimum(layer.input_bits, 8)
        raw = {}
        for setting in settings:
            fmt = AdaptivePackageFormat(PackageConfig(*setting))
            raw[tuple(setting)] = fmt.measure(
                layer.input_nnz, bits, layer.in_dim).total_bits
        best = min(raw.values())
        return {k: v / best for k, v in raw.items()}

    out: Dict[str, Dict[Tuple[int, int, int], float]] = {}
    for dataset in datasets:
        key = ("package_length_study", engine.dataset_fingerprint(dataset),
               get_dataset(dataset).cache_token,
               tuple(tuple(s) for s in settings))
        out[dataset] = engine.cached_table(
            key, lambda d=dataset: one_dataset(d))
    return out


def _cr_jobs(dataset, models, targets):
    jobs: Dict[tuple, SimJob] = {}
    for model in models:
        jobs[(model, None)] = SimJob.from_call("hygcn", dataset, model)
        for target in targets:
            jobs[(model, target)] = SimJob.from_call(
                "mega", dataset, model, target_average_bits=target)
    return jobs


def _cr_reduce(results: Mapping, dataset, models, targets):
    out: Dict[str, Dict[float, float]] = {}
    for model in models:
        hygcn = results[(model, None)]
        out[model] = {
            round(32.0 / target, 1):
                hygcn.total_cycles / results[(model, target)].total_cycles
            for target in targets
        }
    return out


def _original_config_jobs(datasets, model):
    accelerators = ("gcnax-original", "grow-original", "mega")
    return {(dataset, name): SimJob.from_call(name, dataset, model)
            for dataset in datasets for name in accelerators}


def _original_config_reduce(results: Mapping, datasets, model):
    out: Dict[str, Dict[str, float]] = {}
    for dataset in datasets:
        gcnax = results[(dataset, "gcnax-original")]
        grow = results[(dataset, "grow-original")]
        mega = results[(dataset, "mega")]
        out[dataset] = {
            "gcnax": 1.0,
            "grow": gcnax.total_cycles / grow.total_cycles,
            "mega": gcnax.total_cycles / mega.total_cycles,
        }
    return out


def _energy_breakdown_jobs(datasets, model):
    return {(dataset, name): SimJob.from_call(name, dataset, model)
            for dataset in datasets for name in ("mega", "hygcn")}


def _energy_breakdown_reduce(results: Mapping, datasets, model):
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset in datasets:
        mega = results[(dataset, "mega")].energy
        hygcn = results[(dataset, "hygcn")].energy
        out[dataset] = {
            "mega": {"dram": 1.0, "sram": 1.0, "pu": 1.0, "leakage": 1.0},
            "hygcn": {
                "dram": hygcn.dram_pj / max(mega.dram_pj, 1e-9),
                "sram": hygcn.sram_pj / max(mega.sram_pj, 1e-9),
                "pu": hygcn.pu_pj / max(mega.pu_pj, 1e-9),
                "leakage": hygcn.leakage_pj / max(mega.leakage_pj, 1e-9),
            },
        }
    return out


def _no_jobs(**params):
    return {}


EXPERIMENTS.add("full_comparison", ExperimentSpec(
    name="full_comparison",
    description="All (workload, accelerator) simulation reports, one batch",
    build_jobs=_full_comparison_jobs,
    reduce=_full_comparison_reduce,
    defaults=(("workloads", QUICK_WORKLOADS),
              ("accelerators", BASELINE_NAMES + ("mega",))),
    suite_param="workloads",
))

EXPERIMENTS.add("speedup_table", ExperimentSpec(
    name="speedup_table",
    description="Fig. 14: MEGA's speedup over every baseline per workload",
    build_jobs=_ratio_jobs,
    reduce=partial(_ratio_reduce, SimReport.speedup_over),
    defaults=(("workloads", QUICK_WORKLOADS),
              ("accelerators", BASELINE_NAMES + ("hygcn-8bit", "gcnax-8bit"))),
    suite_param="workloads",
    smoke=True,
))

EXPERIMENTS.add("dram_table", ExperimentSpec(
    name="dram_table",
    description="Fig. 16: DRAM access reduction of MEGA over the baselines",
    build_jobs=_ratio_jobs,
    reduce=partial(_ratio_reduce, SimReport.dram_reduction_over),
    defaults=(("workloads", QUICK_WORKLOADS), ("accelerators", BASELINE_NAMES)),
    suite_param="workloads",
    smoke=True,
))

EXPERIMENTS.add("energy_table", ExperimentSpec(
    name="energy_table",
    description="Fig. 17: energy savings of MEGA over the baselines",
    build_jobs=_ratio_jobs,
    reduce=partial(_ratio_reduce, SimReport.energy_saving_over),
    defaults=(("workloads", QUICK_WORKLOADS), ("accelerators", BASELINE_NAMES)),
    suite_param="workloads",
    smoke=True,
))

EXPERIMENTS.add("stall_table", ExperimentSpec(
    name="stall_table",
    description="Fig. 20(a): fraction of cycles stalled on DRAM, GCN workloads",
    build_jobs=_stall_jobs,
    reduce=_stall_reduce,
    defaults=(("datasets", ("cora", "citeseer", "pubmed")),
              ("accelerators", ("hygcn", "gcnax", "mega"))),
    suite_param="datasets",
    smoke=True,
))

EXPERIMENTS.add("ablation_fig19", ExperimentSpec(
    name="ablation_fig19",
    description="Fig. 19: contribution of each technique, vs HyGCN-C",
    build_jobs=_ablation_jobs,
    reduce=_ablation_reduce,
    defaults=(("dataset", "cora"), ("model", "gcn")),
    smoke=True,
))

EXPERIMENTS.add("locality_study", ExperimentSpec(
    name="locality_study",
    description="Fig. 6 / Fig. 20(b): aggregation DRAM per scheduling strategy",
    build_jobs=_no_jobs,
    reduce=_locality_reduce,
    defaults=(("dataset", "cora"), ("feature_dim", 128), ("feature_bits", 4),
              ("strategies", ("naive", "metis", "gcod", "condense")),
              ("num_parts", None)),
    smoke=True,
))

EXPERIMENTS.add("package_length_study", ExperimentSpec(
    name="package_length_study",
    description="Fig. 21: input-feature DRAM vs package length levels, "
                "normalized to each dataset's optimum",
    build_jobs=_no_jobs,
    reduce=_package_length_reduce,
    defaults=(("datasets", ("cora", "citeseer", "pubmed")),
              ("settings", ((16, 24, 32), (64, 128, 192), (160, 192, 296),
                            (192, 296, 400), (400, 512, 800)))),
    suite_param="datasets",
    smoke=True,
))

EXPERIMENTS.add("cr_sensitivity", ExperimentSpec(
    name="cr_sensitivity",
    description="Fig. 22: MEGA speedup over HyGCN as compression ratio grows",
    build_jobs=_cr_jobs,
    reduce=_cr_reduce,
    defaults=(("dataset", "cora"), ("models", ("gcn", "gin")),
              ("targets", (8.0, 6.4, 4.3, 3.2, 2.5))),
))

EXPERIMENTS.add("original_config_comparison", ExperimentSpec(
    name="original_config_comparison",
    description="Fig. 15: MEGA vs GCNAX/GROW in their original "
                "configurations, normalized to GCNAX",
    build_jobs=_original_config_jobs,
    reduce=_original_config_reduce,
    defaults=(("datasets", ("cora", "citeseer", "pubmed")), ("model", "gcn")),
    suite_param="datasets",
))

EXPERIMENTS.add("energy_breakdown_fig18", ExperimentSpec(
    name="energy_breakdown_fig18",
    description="Fig. 18: DRAM/SRAM/PU/leakage energy, HyGCN normalized to MEGA",
    build_jobs=_energy_breakdown_jobs,
    reduce=_energy_breakdown_reduce,
    defaults=(("datasets", ("cora", "citeseer", "pubmed")), ("model", "gcn")),
    suite_param="datasets",
))
