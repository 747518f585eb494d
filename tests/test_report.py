"""ExperimentSpec/Artifact layer: shim bit-identity, old-vs-new
comparison against hand-rolled engine sweeps, and artifact schema."""

import json

import numpy as np
import pytest

from repro.eval import experiments as exp
from repro.eval.engine import SimJob
from repro.eval.reporting import geomean
from repro.report import (ARTIFACT_SCHEMA, Artifact, ArtifactError,
                          run_experiment, run_suite_experiment,
                          tabulate_value, validate_artifact_dict)

WORKLOADS = (("cora", "gcn"), ("citeseer", "gcn"))
DATASETS = ("cora", "citeseer")


class TestShimsBitIdentical:
    """Each legacy runner returns exactly its spec counterpart's value."""

    def test_full_comparison(self, sweep_engine):
        legacy = exp.full_comparison(WORKLOADS, ("hygcn", "mega"))
        spec = run_experiment("full_comparison", workloads=WORKLOADS,
                              accelerators=("hygcn", "mega")).value
        assert legacy == spec

    def test_speedup_table(self, sweep_engine):
        legacy = exp.speedup_table(WORKLOADS, ("hygcn", "gcnax"))
        spec = run_experiment("speedup_table", workloads=WORKLOADS,
                              accelerators=("hygcn", "gcnax")).value
        assert legacy == spec

    def test_dram_and_energy_tables(self, sweep_engine):
        assert exp.dram_table(WORKLOADS, ("hygcn",)) == run_experiment(
            "dram_table", workloads=WORKLOADS, accelerators=("hygcn",)).value
        assert exp.energy_table(WORKLOADS, ("hygcn",)) == run_experiment(
            "energy_table", workloads=WORKLOADS, accelerators=("hygcn",)).value

    def test_stall_table(self, sweep_engine):
        legacy = exp.stall_table(datasets=DATASETS)
        spec = run_experiment("stall_table", datasets=DATASETS).value
        assert legacy == spec

    def test_ablation_fig19(self, sweep_engine):
        legacy = exp.ablation_fig19("cora", "gcn")
        spec = run_experiment("ablation_fig19").value
        assert list(legacy) == list(spec)
        assert all(legacy[k].total_cycles == spec[k].total_cycles
                   for k in legacy)

    def test_locality_study(self, sweep_engine):
        legacy = exp.locality_study(strategies=("naive", "condense"))
        spec = run_experiment("locality_study",
                              strategies=("naive", "condense")).value
        assert legacy == spec

    def test_package_length_study(self, sweep_engine):
        settings = ((16, 24, 32), (64, 128, 192))
        legacy = exp.package_length_study(datasets=("cora",),
                                          settings=settings)
        spec = run_experiment("package_length_study", datasets=("cora",),
                              settings=settings).value
        assert legacy == spec

    def test_cr_sensitivity(self, sweep_engine):
        legacy = exp.cr_sensitivity(models=("gcn",), targets=(8.0, 4.3))
        spec = run_experiment("cr_sensitivity", models=("gcn",),
                              targets=(8.0, 4.3)).value
        assert legacy == spec

    def test_original_config_comparison(self, sweep_engine):
        legacy = exp.original_config_comparison(datasets=DATASETS)
        spec = run_experiment("original_config_comparison",
                              datasets=DATASETS).value
        assert legacy == spec

    def test_energy_breakdown(self, sweep_engine):
        legacy = exp.energy_breakdown_fig18(datasets=("cora",))
        spec = run_experiment("energy_breakdown_fig18",
                              datasets=("cora",)).value
        assert legacy == spec

    def test_accuracy_shims(self, sweep_engine):
        from repro.eval.accuracy import (accuracy_comparison,
                                         dq_bitwidth_sweep)
        from repro.nn import TrainConfig

        tiny = TrainConfig(epochs=3, patience=100)
        cases = (("cora", "gcn"),)
        legacy = accuracy_comparison(cases=cases, config=tiny)
        spec = run_experiment("accuracy_comparison", cases=cases,
                              config=tiny).value
        assert legacy == spec

        legacy = dq_bitwidth_sweep(dataset="cora", model="gcn",
                                   bitwidths=(4,), config=tiny)
        spec = run_experiment("dq_bitwidth_sweep", dataset="cora",
                              model="gcn", bitwidths=(4,),
                              config=tiny).value
        assert legacy == spec


class TestOldVsNew:
    """Spec-path values match hand-rolled pre-refactor computations."""

    def test_speedup_table_matches_manual_sweep(self, sweep_engine):
        accelerators = ("hygcn", "gcnax")
        jobs = {(ds, m, name): SimJob.from_call(name, ds, m)
                for ds, m in WORKLOADS
                for name in accelerators + ("mega",)}
        reports = sweep_engine.run(list(jobs.values()))
        manual = {}
        for ds, m in WORKLOADS:
            mega = reports[jobs[(ds, m, "mega")]]
            manual[f"{ds}-{m}"] = {
                name: reports[jobs[(ds, m, name)]].total_cycles
                / mega.total_cycles
                for name in accelerators}
        manual["geomean"] = {
            name: geomean(row[name] for key, row in manual.items()
                          if key != "geomean")
            for name in accelerators}

        table = exp.speedup_table(WORKLOADS, accelerators)
        assert table == manual

    def test_stall_table_matches_manual_sweep(self, sweep_engine):
        jobs = {(ds, name): SimJob.from_call(name, ds, "gcn")
                for ds in DATASETS for name in ("hygcn", "gcnax", "mega")}
        reports = sweep_engine.run(list(jobs.values()))
        manual = {ds: {name: reports[jobs[(ds, name)]].stall_fraction
                       for name in ("hygcn", "gcnax", "mega")}
                  for ds in DATASETS}
        assert exp.stall_table(datasets=DATASETS) == manual

    def test_ablation_matches_direct_models(self, sweep_engine):
        """The registered ablation entries equal hand-built MegaModels."""
        from repro.mega import MegaModel

        table = exp.ablation_fig19("cora", "gcn")
        workload = exp.get_workload("cora", "gcn", "degree-aware")
        direct_bitmap = MegaModel(storage="bitmap",
                                  condense=False).simulate(workload)
        direct_full = MegaModel().simulate(workload)
        assert table["quant+bitmap"].total_cycles == direct_bitmap.total_cycles
        assert table["+condense-edge"].total_cycles == direct_full.total_cycles


class TestArtifact:
    def test_metadata_records_execution(self, sweep_engine):
        artifact = run_experiment("stall_table", datasets=("cora",))
        jobs = artifact.metadata["jobs"]
        assert jobs["unique"] == 3 and jobs["executed"] == 3
        assert jobs["trained"] == 0
        assert artifact.metadata["source_digest"]
        # Warm rerun executes nothing.
        warm = run_experiment("stall_table", datasets=("cora",))
        assert warm.metadata["jobs"]["executed"] == 0
        assert warm.value == artifact.value

    def test_json_roundtrip_through_schema(self, sweep_engine):
        artifact = run_experiment("speedup_table", workloads=WORKLOADS,
                                  accelerators=("hygcn",))
        data = json.loads(artifact.to_json())
        validate_artifact_dict(data)
        assert data["schema"] == ARTIFACT_SCHEMA
        restored = Artifact.from_json(artifact.to_json())
        assert restored.experiment == artifact.experiment
        assert restored.columns == artifact.columns
        assert restored.rows == artifact.rows
        assert restored.metadata == artifact.metadata

    def test_rows_are_json_primitive(self, sweep_engine):
        for name, params in (
            ("full_comparison", dict(workloads=(("cora", "gcn"),),
                                     accelerators=("hygcn", "mega"))),
            ("cr_sensitivity", dict(models=("gcn",), targets=(8.0,))),
            ("energy_breakdown_fig18", dict(datasets=("cora",))),
        ):
            artifact = run_experiment(name, **params)
            validate_artifact_dict(artifact.to_dict())

    def test_save_and_render(self, sweep_engine, tmp_path):
        artifact = run_experiment("stall_table", datasets=("cora",))
        paths = artifact.save(tmp_path, formats=("json", "csv", "md"))
        assert len(paths) == 3
        validate_artifact_dict(json.loads(
            (tmp_path / "stall_table.json").read_text()))
        csv_text = (tmp_path / "stall_table.csv").read_text()
        assert csv_text.splitlines()[0].startswith("row,")
        md = (tmp_path / "stall_table.md").read_text()
        assert md.startswith("| row |")
        with pytest.raises(ValueError):
            artifact.save(tmp_path, formats=("xml",))

    def test_validate_rejects_bad_artifacts(self):
        good = {"schema": ARTIFACT_SCHEMA, "experiment": "x",
                "columns": ["row", "a"], "rows": [{"row": "r", "a": 1.0}],
                "metadata": {}}
        validate_artifact_dict(good)
        for mutate in (
            lambda d: d.update(schema="other/v9"),
            lambda d: d.update(experiment=""),
            lambda d: d.update(columns=[]),
            lambda d: d.update(rows=[{"row": "r", "zzz": 1.0}]),
            lambda d: d.update(rows=[{"row": object()}]),
            lambda d: d.update(metadata=None),
        ):
            bad = {k: (v.copy() if hasattr(v, "copy") else v)
                   for k, v in good.items()}
            mutate(bad)
            with pytest.raises(ArtifactError):
                validate_artifact_dict(bad)

    def test_tabulate_nested_shapes(self):
        two_level = {"r1": {"a": 1.0, "b": 2.0}, "r2": {"a": 3.0}}
        table = tabulate_value(two_level)
        assert table["columns"] == ["row", "a", "b"]
        assert table["rows"][0] == {"row": "r1", "a": 1.0, "b": 2.0}

        three_level = {"case": {"flow": {"acc": 0.5}}}
        table = tabulate_value(three_level)
        assert table["rows"] == [{"row": "case/flow", "acc": 0.5}]

        tuple_keys = {("cora", "gcn"): {"hygcn": 1.5}}
        table = tabulate_value(tuple_keys)
        assert table["rows"][0]["row"] == "cora-gcn"

        arrays = {"gcn": np.arange(3, dtype=np.float64)}
        table = tabulate_value(arrays)
        assert table["rows"][0]["gcn"] == [0.0, 1.0, 2.0]

    def test_run_suite_experiment_binds_suite(self, sweep_engine):
        artifact = run_suite_experiment("stall_table", "smoke")
        assert [r["row"] for r in artifact.rows] == ["cora", "citeseer"]
        with pytest.raises(Exception, match="not suite-parameterized"):
            run_suite_experiment("ablation_fig19", "smoke")


class TestDegradedArtifacts:
    """Partial-result artifacts: the errors schema and fail-fast mode."""

    def test_degrade_records_structured_errors(self, sweep_engine):
        from repro.faults import inject_faults

        with inject_faults(raise_=1.0):
            artifact = run_experiment("stall_table", datasets=("cora",),
                                      fail_fast=False)
        jobs = artifact.metadata["jobs"]
        assert jobs["failed"] > 0 and jobs["executed"] == 0
        assert artifact.value is None  # reducer cannot digest zero rows
        errors = artifact.metadata["errors"]
        assert len(errors) == jobs["failed"]
        for error in errors:
            assert set(error) == {"job", "fingerprint", "error_type",
                                  "error", "attempts", "elapsed_s", "kind"}
            assert error["error_type"] == "InjectedFault"
            assert error["attempts"] == 1
        # Degraded artifacts still serialize through the schema.
        validate_artifact_dict(artifact.to_dict())

    def test_partial_failure_keeps_successful_rows(self, sweep_engine):
        from repro.faults import FaultPlan, inject_faults

        datasets = ("cora", "citeseer")
        # A seed whose victims are a strict subset of the stall_table jobs.
        from repro.registry import get_experiment

        spec = get_experiment("stall_table")
        jobs = spec.build_jobs(
            **spec.params_with_defaults({"datasets": datasets}))
        for seed in range(64):
            plan = FaultPlan(rates=(("raise", 0.5),), seed=seed)
            doomed = [j for j in jobs.values()
                      if plan.decide("raise", repr(j))]
            if 0 < len(doomed) < len(jobs):
                break
        with inject_faults(raise_=0.5, seed=seed):
            artifact = run_experiment("stall_table", datasets=datasets,
                                      fail_fast=False)
        assert artifact.metadata["jobs"]["failed"] == len(doomed)
        assert artifact.rows  # the surviving jobs still tabulate
        validate_artifact_dict(artifact.to_dict())

    def test_fail_fast_true_reraises(self, sweep_engine):
        from repro.faults import InjectedFault, inject_faults

        with inject_faults(raise_=1.0):
            with pytest.raises(InjectedFault):
                run_experiment("stall_table", datasets=("cora",),
                               fail_fast=True)

    def test_library_default_is_fail_fast(self, sweep_engine):
        """Without fail_fast, run_experiment raises — the legacy runner
        semantics; degrade is opt-in (the CLI passes fail_fast=False
        explicitly)."""
        from repro.faults import InjectedFault, inject_faults

        with inject_faults(raise_=1.0):
            with pytest.raises(InjectedFault):
                run_experiment("stall_table", datasets=("cora",))

    def test_clean_run_has_no_errors_section(self, sweep_engine):
        artifact = run_experiment("stall_table", datasets=("cora",))
        assert "errors" not in artifact.metadata
        assert artifact.metadata["jobs"]["failed"] == 0
        assert set(artifact.metadata["cache"]) == {
            "hits", "misses", "puts", "quarantined", "write_failures",
            "io_errors"}
