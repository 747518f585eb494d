"""Decorator-based registries: the pluggable scenario layer.

Every name the evaluation stack dispatches on — an accelerator, a
dataset, a workload suite, an experiment — resolves through a
:class:`Registry` here instead of an ``if name == ...`` chain inside an
engine.  The built-in entries are registered by the modules that define
them (``repro.baselines.generic`` the baseline presets,
``repro.mega.performance`` the MEGA variants, ``repro.graphs.datasets``
the paper graphs and the synthetic scale-sweep scenarios,
``repro.eval.experiments`` and ``repro.eval.accuracy`` the suites and
experiment specs); each registry imports its modules on its first
lookup, so adding a scenario is a registration, never an engine edit:

>>> from repro.registry import ACCELERATORS, AcceleratorEntry
>>> @ACCELERATORS.register("my-accel", precision="fp32")
... def build_my_accel(**kwargs):
...     return MyAcceleratorModel(**kwargs)

This module imports nothing from the rest of ``repro`` at import time,
and registration (:meth:`Registry.add`) never loads the built-ins: the
built-in modules call ``add`` while their own packages are still
half-imported.  An entry registered before the first lookup under a
built-in's name makes that lookup raise :class:`RegistryError`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import (Callable, Dict, Generic, Iterator, Mapping, Optional,
                    Tuple, TypeVar)

__all__ = [
    "RegistryError",
    "Registry",
    "AcceleratorEntry",
    "DatasetEntry",
    "SuiteEntry",
    "ExperimentSpec",
    "ACCELERATORS",
    "DATASETS",
    "SUITES",
    "EXPERIMENTS",
    "get_accelerator",
    "get_dataset",
    "get_suite",
    "get_experiment",
    "load_builtins",
]

E = TypeVar("E")


class RegistryError(LookupError):
    """Unknown or duplicate registry name (message lists what exists)."""


class Registry(Generic[E]):
    """A named string -> entry mapping with strict registration.

    Duplicate registration raises (two subsystems silently fighting over
    one name is always a bug); unknown lookups raise a
    :class:`RegistryError` whose message lists every registered name, so
    a typo on the CLI or in a spec is self-diagnosing.
    """

    def __init__(self, kind: str, builtins: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._entries: Dict[str, E] = {}
        # Modules whose import registers the built-in entries; imported
        # by the first lookup (see load_builtins).
        self._builtins = builtins

    def load_builtins(self) -> None:
        """Import the modules that register the built-in entries (once;
        every lookup calls this first)."""
        if self._builtins:
            for module in self._builtins:
                importlib.import_module(module)
            self._builtins = ()

    # -- registration ------------------------------------------------------
    def add(self, name: str, entry: E) -> E:
        key = name.lower()
        if key in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"unregister it first to replace it")
        self._entries[key] = entry
        return entry

    def register(self, name: str, **metadata) -> Callable:
        """Decorator form of :meth:`add`.

        The decorated callable becomes the entry's factory/payload; how
        ``metadata`` is interpreted is up to the registry's entry type
        (see :meth:`_entry_from_callable`).
        """
        def decorate(obj: Callable) -> Callable:
            self.add(name, self._entry_from_callable(name, obj, metadata))
            return obj
        return decorate

    def _entry_from_callable(self, name: str, obj: Callable,
                             metadata: Mapping) -> E:
        if metadata:
            raise TypeError(
                f"{self.kind} registry takes no registration metadata; "
                f"construct the entry and use .add()")
        return obj  # type: ignore[return-value]

    def unregister(self, name: str) -> None:
        self.load_builtins()
        self._entries.pop(name.lower(), None)

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> E:
        self.load_builtins()
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}") from None

    def names(self) -> Tuple[str, ...]:
        self.load_builtins()
        return tuple(sorted(self._entries))

    def items(self) -> Tuple[Tuple[str, E], ...]:
        self.load_builtins()
        return tuple(sorted(self._entries.items()))

    def __contains__(self, name: object) -> bool:
        self.load_builtins()
        return isinstance(name, str) and name.lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self.load_builtins()
        return len(self._entries)


# ----------------------------------------------------------------------
# Accelerators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratorEntry:
    """One simulatable accelerator: a config factory plus metadata.

    ``factory(**kwargs)`` must return an
    :class:`~repro.sim.accelerator.AcceleratorModel`; ``defaults`` are
    preset keyword arguments (how the Fig. 19 ablation variants reuse
    the MEGA factory), and ``precision`` names the workload precision
    the paper pairs with the design (what :class:`repro.eval.engine.
    SimJob` feeds the workload builder).
    """

    name: str
    factory: Callable[..., object]
    precision: str = "fp32"
    description: str = ""
    accepts_variants: bool = False
    defaults: Tuple[Tuple[str, object], ...] = ()
    # Opaque version token mixed into the sweep engine's disk-cache
    # keys.  Built-in entries leave it empty (the engine's source digest
    # already covers repro's own code); runtime-registered entries
    # should bump it whenever their factory's behavior changes, or
    # stale simulation results will replay from the cache.
    version: str = ""

    @property
    def cache_token(self) -> Tuple:
        """Everything about this entry a cached result depends on."""
        return (self.precision, self.defaults, self.version)

    def build(self, **variant):
        """Instantiate the model (variant kwargs override the preset)."""
        if variant and not self.accepts_variants:
            raise ValueError(
                f"variant kwargs {sorted(variant)!r} not supported by "
                f"accelerator {self.name!r} (fixed-configuration preset)")
        kwargs = dict(self.defaults)
        kwargs.update(variant)
        return self.factory(**kwargs)


class _AcceleratorRegistry(Registry[AcceleratorEntry]):
    def _entry_from_callable(self, name, obj, metadata) -> AcceleratorEntry:
        return AcceleratorEntry(name=name, factory=obj, **metadata)


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetEntry:
    """One dataset recipe: the statistics a synthetic stand-in graph is
    generated from.

    :func:`repro.graphs.datasets.load_dataset` builds the graph at a
    scale — ``"sim"`` at ``nodes`` and ``average_degree``, ``"train"``
    at the ``train_*`` sizes (defaults ``min(nodes, 4096)`` nodes,
    ``min(feature_dim, 512)`` features, ``average_degree``), ``"tiny"``
    at 256 nodes — and :func:`~repro.graphs.datasets.sim_feature_stats`
    draws the per-node non-zero counts of the full ``feature_dim``-wide
    input features at sim scale.  The paper stand-ins take their sizes
    from Table II (:data:`repro.paper_data.TABLE_II`); a scale scenario
    is the same kind of recipe with free numbers.

    The workload statistics derive from the name: the Fig. 5 hidden
    density and the Table VI average bits where the paper reports the
    dataset, 0.5 and 2.5 elsewhere.  The frozen recipe is its own cache
    token, so every cache keyed on it misses once an entry is edited.
    """

    name: str
    nodes: int
    average_degree: float
    feature_dim: int
    feature_density: float       # mean non-zero fraction of the input features
    num_classes: int
    homophily: float             # share of edges inside a node's class
    exponent: float              # power-law exponent of the degree tail
    binary_features: bool = True
    max_degree: Optional[int] = None   # in-degree cap (None: nodes ** 0.75)
    train_nodes: Optional[int] = None
    train_feature_dim: Optional[int] = None
    train_average_degree: Optional[float] = None
    description: str = ""

    @property
    def size_hint(self) -> int:
        """Node count of the simulation-scale graph: the sweep engine
        splits oversized per-dataset job chunks on it."""
        return self.nodes

    @property
    def cache_token(self) -> Tuple:
        """Everything about this entry a cached result depends on: the
        whole recipe."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def load(self, scale: str = "train", seed: int = 0):
        """This recipe's graph at ``scale`` (through
        :func:`repro.graphs.datasets.load_dataset`)."""
        from .graphs import datasets

        return datasets.load_dataset(self, scale=scale, seed=seed)

    def feature_stats(self, rng=None) -> Tuple[int, object]:
        """(full feature length, per-node non-zero counts at sim scale);
        see :func:`repro.graphs.datasets.sim_feature_stats`."""
        from .graphs import datasets

        return datasets.sim_feature_stats(self, rng=rng)

    def hidden_density(self, model: str) -> float:
        """Non-zero fraction of ``model``'s hidden feature map (Fig. 5)."""
        from .paper_data import FIG5_HIDDEN_DENSITY

        return FIG5_HIDDEN_DENSITY[model].get(self.name, 0.5)

    def average_bits(self, model: str) -> float:
        """Degree-Aware average bitwidth target for ``model`` (Table VI)."""
        from .paper_data import PAPER_AVERAGE_BITS

        return PAPER_AVERAGE_BITS[model].get(self.name, 2.5)


# ----------------------------------------------------------------------
# Workload suites
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteEntry:
    """A named tuple of (dataset, model) evaluation pairs."""

    name: str
    workloads: Tuple[Tuple[str, str], ...]
    description: str = ""

    @property
    def datasets(self) -> Tuple[str, ...]:
        """The suite's distinct datasets, first-appearance order."""
        return tuple(dict.fromkeys(ds for ds, _ in self.workloads))


class _SuiteRegistry(Registry[SuiteEntry]):
    def _entry_from_callable(self, name, obj, metadata):
        raise TypeError("register suites with .add(name, SuiteEntry(...))")


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------

def _param_kind(value) -> Optional[str]:
    """The kind of value a parameter with this default takes: a bool, a
    number (int or float), a string or a sequence (list or tuple); None
    (a ``None`` default) takes anything."""
    if isinstance(value, bool):
        return "a bool"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, (list, tuple)):
        return "a sequence"
    return None


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: job batch builder + reducer.

    ``defaults`` declares every parameter with its default value, and is
    the only place they are written; a parameter it does not name is
    refused (:meth:`params_with_defaults`).  ``build_jobs(**params)``
    returns an ordered mapping of result key ->
    :class:`~repro.eval.engine.SimJob` / ``TrainJob`` (empty for
    experiments that compute directly through the engine's table cache);
    ``reduce(results, **params)`` receives the resolved ``{key: report}``
    mapping and produces the experiment's value.
    :func:`repro.report.run_experiment` runs the pair and wraps that
    value in a schema'd :class:`~repro.report.Artifact`.

    ``suite_param`` names the parameter a workload suite maps onto.  Its
    default says what the suite hands it: a default of (dataset, model)
    pairs takes the suite's pairs, a default of dataset names its
    distinct datasets (:meth:`suite_params`).
    """

    name: str
    description: str
    build_jobs: Callable[..., Mapping]
    reduce: Callable[..., object]
    defaults: Tuple[Tuple[str, object], ...] = ()
    # Name of the parameter a workload suite maps onto (None = the
    # experiment is not suite-parameterized).
    suite_param: Optional[str] = None
    # Included in the CLI's default smoke run (`repro run` with no
    # experiment name)?  Keep False for training-backed experiments.
    smoke: bool = False

    def params_with_defaults(self, params: Mapping) -> Dict[str, object]:
        """The defaults with ``params`` applied; a parameter the spec
        does not declare, or a value of another kind than its default
        (see :func:`_param_kind`), raises :class:`RegistryError`."""
        merged = dict(self.defaults)
        undeclared = sorted(set(params) - set(merged))
        if undeclared:
            raise RegistryError(
                f"experiment {self.name!r} has no parameter "
                f"{', '.join(map(repr, undeclared))}; declared: "
                f"{', '.join(merged) or '(none)'}")
        for name, value in params.items():
            kind = _param_kind(merged[name])
            if kind is not None and _param_kind(value) != kind:
                raise RegistryError(
                    f"experiment {self.name!r} parameter {name!r} takes "
                    f"{kind}, not {type(value).__name__} {value!r:.80}")
        merged.update(params)
        return merged

    def suite_params(self, suite: SuiteEntry) -> Dict[str, object]:
        if self.suite_param is None:
            takers = ", ".join(name for name, spec in EXPERIMENTS.items()
                               if spec.suite_param)
            raise RegistryError(
                f"experiment {self.name!r} is not suite-parameterized; "
                f"those that are: {takers}")
        default = dict(self.defaults)[self.suite_param]
        takes_pairs = not isinstance(default[0], str)
        value: object = suite.workloads if takes_pairs else suite.datasets
        return {self.suite_param: value}


class _ExperimentRegistry(Registry[ExperimentSpec]):
    def _entry_from_callable(self, name, obj, metadata):
        raise TypeError("register experiments with .add(name, ExperimentSpec(...))")


ACCELERATORS: _AcceleratorRegistry = _AcceleratorRegistry(
    "accelerator", ("repro.baselines.generic", "repro.mega.performance"))
DATASETS: Registry[DatasetEntry] = Registry(
    "dataset", ("repro.graphs.datasets",))
SUITES: _SuiteRegistry = _SuiteRegistry(
    "suite", ("repro.eval.experiments",))
EXPERIMENTS: _ExperimentRegistry = _ExperimentRegistry(
    "experiment", ("repro.eval.experiments", "repro.eval.accuracy"))


def load_builtins() -> None:
    """Fill every registry with its built-in entries now (what a
    long-lived process does before it reports ready)."""
    for registry in (ACCELERATORS, DATASETS, SUITES, EXPERIMENTS):
        registry.load_builtins()


def get_accelerator(name: str) -> AcceleratorEntry:
    return ACCELERATORS.get(name)


def get_dataset(name: str) -> DatasetEntry:
    return DATASETS.get(name)


def get_suite(name: str) -> SuiteEntry:
    return SUITES.get(name)


def get_experiment(name: str) -> ExperimentSpec:
    return EXPERIMENTS.get(name)
