"""Registry semantics + the registered scenario layer."""

import numpy as np
import pytest

from repro.registry import (ACCELERATORS, DATASETS, EXPERIMENTS, SUITES,
                            AcceleratorEntry, DatasetEntry, Registry,
                            RegistryError, SuiteEntry, get_accelerator,
                            get_dataset, get_suite)


class TestRegistrySemantics:
    def test_duplicate_registration_raises(self):
        reg = Registry("thing")
        reg.add("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.add("a", 2)

    def test_duplicate_is_case_insensitive(self):
        reg = Registry("thing")
        reg.add("Widget", 1)
        with pytest.raises(RegistryError):
            reg.add("widget", 2)

    def test_unknown_lookup_lists_available(self):
        reg = Registry("gadget")
        reg.add("alpha", 1)
        reg.add("beta", 2)
        with pytest.raises(RegistryError) as exc:
            reg.get("gamma")
        message = str(exc.value)
        assert "gamma" in message and "alpha" in message and "beta" in message

    def test_lookup_case_insensitive(self):
        reg = Registry("thing")
        reg.add("Alpha", 42)
        assert reg.get("alpha") == 42
        assert "ALPHA" in reg

    def test_unregister_allows_replacement(self):
        reg = Registry("thing")
        reg.add("a", 1)
        reg.unregister("a")
        reg.add("a", 2)
        assert reg.get("a") == 2

    def test_decorator_registration(self):
        reg = Registry("fn")

        @reg.register("double")
        def double(x):
            return 2 * x

        assert reg.get("double") is double

    def test_names_sorted(self):
        reg = Registry("thing")
        reg.add("b", 1)
        reg.add("a", 2)
        assert reg.names() == ("a", "b")


class TestAcceleratorRegistry:
    def test_builtin_accelerators_present(self):
        for name in ("mega", "mega-bitmap", "mega-no-condense",
                     "hygcn", "gcnax", "grow", "sgcn",
                     "hygcn-8bit", "gcnax-8bit", "hygcn-c",
                     "gcnax-original", "grow-original"):
            assert name in ACCELERATORS, name

    def test_precision_metadata(self):
        assert get_accelerator("mega").precision == "degree-aware"
        assert get_accelerator("mega-bitmap").precision == "degree-aware"
        assert get_accelerator("hygcn-8bit").precision == "int8"
        assert get_accelerator("grow").precision == "fp32"

    def test_build_instantiates_models(self):
        from repro.baselines.generic import GenericAcceleratorModel
        from repro.mega import MegaModel

        assert isinstance(get_accelerator("mega").build(), MegaModel)
        assert isinstance(get_accelerator("sgcn").build(),
                          GenericAcceleratorModel)

    def test_ablation_entries_preset_defaults(self):
        model = get_accelerator("mega-bitmap").build()
        assert model.storage == "bitmap" and not model.condense
        model = get_accelerator("mega-no-condense").build()
        assert model.storage == "adaptive-package" and not model.condense

    def test_variant_kwargs_override_preset(self):
        model = get_accelerator("mega-no-condense").build(condense=True)
        assert model.condense

    def test_fixed_preset_rejects_variants(self):
        with pytest.raises(ValueError, match="variant"):
            get_accelerator("hygcn").build(condense=False)

    def test_custom_registration_roundtrip(self):
        entry = AcceleratorEntry(name="test-accel", factory=lambda: "model",
                                 precision="fp32")
        ACCELERATORS.add("test-accel", entry)
        try:
            assert get_accelerator("test-accel").build() == "model"
        finally:
            ACCELERATORS.unregister("test-accel")


class TestDatasetRegistry:
    def test_paper_and_scenario_datasets_present(self):
        for name in ("cora", "citeseer", "pubmed", "nell", "reddit",
                     "powerlaw-10k", "powerlaw-500k", "community-50k"):
            assert name in DATASETS, name

    @pytest.mark.parametrize("name", DATASETS.names())
    def test_paper_entry_matches_load_dataset(self, name):
        """Every registered name, paper stand-in or scale scenario, loads
        and draws feature statistics through the one loader."""
        from repro.graphs import load_dataset, sim_feature_stats

        entry = get_dataset(name)
        via_registry = entry.load(scale="tiny", seed=0)
        direct = load_dataset(name, scale="tiny", seed=0)
        assert (via_registry.adjacency != direct.adjacency).nnz == 0
        assert np.array_equal(via_registry.features, direct.features)
        assert via_registry.name == direct.name == f"{name}-tiny"
        dim, nnz = sim_feature_stats(name)
        entry_dim, entry_nnz = entry.feature_stats()
        assert dim == entry_dim == entry.feature_dim
        assert np.array_equal(nnz, entry_nnz)
        assert len(nnz) == entry.size_hint

    def test_scenario_loads_all_scales(self):
        entry = get_dataset("powerlaw-10k")
        tiny = entry.load(scale="tiny")
        train = entry.load(scale="train")
        assert tiny.num_nodes == 256
        assert train.num_nodes == 4096
        assert entry.num_classes == 16
        with pytest.raises(ValueError):
            entry.load(scale="huge")

    def test_scenario_sim_scale_counts(self):
        graph = get_dataset("powerlaw-10k").load(scale="sim")
        assert graph.num_nodes == 10_000
        degrees = np.diff(graph.adjacency.tocsr().indptr)
        # Power-law tail: the hubs dwarf the median degree.
        assert degrees.max() > 10 * max(np.median(degrees), 1)

    def test_scenario_feature_stats_deterministic(self):
        entry = get_dataset("community-10k")
        dim_a, nnz_a = entry.feature_stats(rng=np.random.default_rng(3))
        dim_b, nnz_b = entry.feature_stats(rng=np.random.default_rng(3))
        assert dim_a == dim_b == 256
        assert len(nnz_a) == 10_000
        assert np.array_equal(nnz_a, nnz_b)

    def test_scenario_workload_defaults(self):
        entry = get_dataset("powerlaw-10k")
        assert entry.hidden_density("gcn") == pytest.approx(0.5)
        assert entry.average_bits("gcn") == pytest.approx(2.5)

    def test_paper_entry_paper_constants(self):
        from repro.paper_data import FIG5_HIDDEN_DENSITY, PAPER_AVERAGE_BITS

        entry = get_dataset("pubmed")
        assert entry.hidden_density("gin") == FIG5_HIDDEN_DENSITY["gin"]["pubmed"]
        assert entry.average_bits("gcn") == PAPER_AVERAGE_BITS["gcn"]["pubmed"]


class TestSuiteRegistry:
    def test_builtin_suites(self):
        from repro.eval.experiments import PAPER_WORKLOADS

        assert get_suite("paper").workloads == PAPER_WORKLOADS
        assert len(get_suite("quick").workloads) == 5
        assert all(ds in DATASETS for ds, _ in get_suite("scale-sweep").workloads)

    def test_scale_sweep_10k_suite_is_ci_sized(self):
        suite = get_suite("scale-sweep-10k")
        assert suite.workloads
        assert all(ds.endswith("-10k") for ds, _ in suite.workloads)
        assert all(ds in DATASETS for ds, _ in suite.workloads)

    def test_suite_datasets_deduplicated(self):
        suite = SuiteEntry("s", (("cora", "gcn"), ("cora", "gin"),
                                 ("pubmed", "gcn")))
        assert suite.datasets == ("cora", "pubmed")


class TestExperimentParams:
    def test_defaults_cover_exactly_what_each_spec_reads(self):
        """``defaults`` is the one declaration of an experiment's
        parameters: its reducer takes exactly those after ``results``,
        its job builder accepts them, and its suite parameter is one."""
        import inspect

        for name, spec in EXPERIMENTS.items():
            declared = dict(spec.defaults)
            reads = list(inspect.signature(spec.reduce).parameters)[1:]
            assert set(reads) == set(declared), name
            inspect.signature(spec.build_jobs).bind(**declared)
            if spec.suite_param is not None:
                assert spec.suite_param in declared, name

    def test_undeclared_param_raises_before_any_job(self, sweep_engine):
        from repro.report import run_experiment

        with pytest.raises(RegistryError, match=(
                r"no parameter 'dataset'; declared: datasets, accelerators")):
            run_experiment("stall_table", dataset=("cora",))
        assert sweep_engine.executed_jobs == 0


class TestScenarioThroughEngine:
    def test_scale_sweep_scenario_runs_through_cached_engine(self, sweep_engine):
        """A registered synthetic scenario executes through the same
        SimJob path as the paper graphs, and replays from the cache."""
        from repro.eval.engine import SimJob
        from repro.perf.timers import Timer

        jobs = [SimJob.from_call(name, "powerlaw-10k", "gcn")
                for name in ("hygcn", "mega")]
        with Timer() as cold_t:
            reports = sweep_engine.run(jobs)
        assert sweep_engine.executed_jobs == 2
        hygcn, mega = reports[jobs[0]], reports[jobs[1]]
        assert mega.total_cycles < hygcn.total_cycles
        assert hygcn.workload == "powerlaw-10k-gcn-fp32"

        # Warm replay: a fresh engine over the same store executes nothing.
        from repro.eval.engine import SweepEngine
        from repro.eval.experiments import clear_caches

        clear_caches()
        warm = SweepEngine(workers=0, cache_dir=sweep_engine.artifacts.base)
        with Timer() as warm_t:
            warm_reports = warm.run(jobs)
        assert warm.executed_jobs == 0
        assert warm_reports[jobs[1]].total_cycles == mega.total_cycles
        assert cold_t.elapsed >= 10 * warm_t.elapsed, \
            (cold_t.elapsed, warm_t.elapsed)

    def test_train_multiple_seeds_accepts_hyphenated_scenarios(self, sweep_engine):
        """Declarative multi-seed training parses scenario names whose
        dataset part itself contains hyphens (powerlaw-10k etc.)."""
        from repro.nn import TrainConfig
        from repro.nn.training import train_multiple_seeds

        out = train_multiple_seeds(
            "gcn", "powerlaw-10k", seeds=[0],
            config=TrainConfig(epochs=2, patience=100))
        assert out["runs"] == 1
        assert 0.0 <= out["mean_accuracy"] <= 1.0

        # A loaded scenario graph ("powerlaw-10k-tiny") parses too.
        from repro.perf.cache import cached_load_dataset

        graph = cached_load_dataset("powerlaw-10k", scale="tiny")
        out = train_multiple_seeds(
            "gcn", graph, seeds=[0], config=TrainConfig(epochs=2, patience=100))
        assert out["runs"] == 1

    def test_entry_version_token_invalidates_cache(self, sweep_engine):
        """Re-registering an accelerator with a new version token misses
        the disk cache (runtime-registered entries aren't covered by the
        source digest)."""
        from dataclasses import replace

        from repro.eval.engine import SimJob

        base = ACCELERATORS.get("hygcn")
        ACCELERATORS.add("custom-accel", replace(base, name="custom-accel",
                                                 version="v1"))
        try:
            job = SimJob.from_call("custom-accel", "cora", "gcn")
            fp_v1 = sweep_engine.job_fingerprint(job)
            ACCELERATORS.unregister("custom-accel")
            ACCELERATORS.add("custom-accel", replace(base, name="custom-accel",
                                                     version="v2"))
            assert sweep_engine.job_fingerprint(job) != fp_v1
        finally:
            ACCELERATORS.unregister("custom-accel")

    def test_scenario_spec_edit_invalidates_cache(self, sweep_engine):
        """Editing a scenario's generation parameters changes the job
        fingerprint even when the adjacency would be unchanged."""
        from dataclasses import replace

        from repro.eval.engine import SimJob

        entry = replace(get_dataset("powerlaw-10k"), name="custom-scn")
        DATASETS.add("custom-scn", entry)
        try:
            job = SimJob.from_call("hygcn", "custom-scn", "gcn")
            fp_a = sweep_engine.job_fingerprint(job)
            DATASETS.unregister("custom-scn")
            DATASETS.add("custom-scn", replace(entry, feature_density=0.2))
            assert sweep_engine.job_fingerprint(job) != fp_a
        finally:
            DATASETS.unregister("custom-scn")

    def test_edited_recipe_never_replays_stale_memos(self, tmp_path):
        """In one process, an engine on the store an old recipe filled
        gives an edited recipe's real graph fingerprint and the Fig. 21
        table a fresh store computes: no memo keyed on the old recipe
        (fingerprint, table, dataset or workload cache) replays."""
        from dataclasses import replace

        from repro.eval.engine import SweepEngine, set_engine
        from repro.eval.experiments import clear_caches
        from repro.perf.cache import graph_fingerprint
        from repro.report import run_experiment

        def fingerprint_and_table(entry, store):
            DATASETS.add("custom-scn", entry)
            engine = SweepEngine(workers=0, cache_dir=store)
            previous = set_engine(engine)
            try:
                return (engine.dataset_fingerprint("custom-scn"),
                        run_experiment("package_length_study",
                                       datasets=("custom-scn",)).value)
            finally:
                set_engine(previous)
                DATASETS.unregister("custom-scn")

        base = replace(get_dataset("powerlaw-10k"), name="custom-scn",
                       nodes=1000)
        # More nodes change the adjacency; a denser recipe keeps it and
        # changes only the feature statistics.
        edits = (replace(base, nodes=2000),
                 replace(base, nodes=2000, feature_density=0.2))
        try:
            fingerprint_and_table(base, tmp_path / "shared")
            shared = [fingerprint_and_table(entry, tmp_path / "shared")
                      for entry in edits]
            clear_caches()
            fresh = [fingerprint_and_table(entry, tmp_path / f"fresh-{i}")
                     for i, entry in enumerate(edits)]
        finally:
            clear_caches()
        assert shared == fresh
        real = graph_fingerprint(edits[0].load(scale="sim").adjacency)
        assert fresh[0][0] == fresh[1][0] == real
        assert fresh[0][1] != fresh[1][1]  # the density edit shows

    def test_unknown_dataset_fails_with_listing(self, sweep_engine):
        from repro.eval.engine import SimJob

        with pytest.raises(RegistryError, match="powerlaw-10k"):
            sweep_engine.run([SimJob.from_call("mega", "no-such-graph", "gcn")])

    def test_unknown_accelerator_fails_with_listing(self):
        from repro.eval.engine import SimJob

        job = SimJob.from_call("warp-drive", "cora", "gcn")
        with pytest.raises(RegistryError, match="mega"):
            job.precision


class TestClockGhz:
    def test_default_reports_unchanged_at_1ghz(self, sweep_engine):
        report = sweep_engine.simulate("hygcn", "cora", "gcn")
        assert report.clock_ghz == 1.0
        assert report.seconds == pytest.approx(report.total_cycles / 1e9)

    def test_custom_clock_scales_seconds(self):
        from repro.sim.accelerator import SimReport
        from repro.sim.dram import DramTraffic
        from repro.sim.energy import EnergyBreakdown

        rep = SimReport("a", "w", 1e9, 0.0, 2e9, 0.0, DramTraffic(),
                        EnergyBreakdown(0, 0, 0, 0), clock_ghz=2.0)
        assert rep.seconds == pytest.approx(1.0)

    def test_model_clock_carried_into_report(self):
        from repro.baselines import build_baseline
        from repro.perf.cache import cached_load_dataset
        from repro.sim.workload import build_workload

        graph = cached_load_dataset("cora", scale="tiny")
        workload = build_workload("cora", "gcn", "fp32", graph=graph)
        model = build_baseline("hygcn")
        model.clock_ghz = 2.0
        report = model.simulate(workload)
        assert report.clock_ghz == 2.0
        assert report.seconds == pytest.approx(report.total_cycles / 2e9)
