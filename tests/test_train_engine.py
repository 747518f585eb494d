"""Tests for the TrainJob path of the job engine: same-seed determinism,
parallel ≡ serial accuracy tables, warm-cache replays that train zero
models, and cross-table deduplication."""

import numpy as np
import pytest

from repro.eval import engine as engine_mod
from repro.eval.engine import SweepEngine, TrainJob
from repro.nn import TrainConfig, build_model, evaluate, evaluate_masks, train
from repro.perf.cache import cached_load_dataset
from repro.perf.timers import Timer
from repro.report import run_experiment

# Tiny budget: these tests exercise orchestration, not convergence.
QUICK = TrainConfig(epochs=3, patience=100)

JOBS = [TrainJob.from_call("cora", "gcn", flow, kwargs, config=QUICK,
                           seed=seed, scale="tiny")
        for flow, kwargs in (("fp32", None), ("dq", {"bits": 4}))
        for seed in (0, 1)]


def result_key(result):
    """Deterministic fields of a flow result (wall-clock excluded)."""
    return (result.test_accuracy, result.average_bits,
            result.compression_ratio)


class TestTrainJob:
    def test_flow_kwargs_frozen_and_hashable(self):
        from repro.quant import DegreeAwareConfig

        a = TrainJob.from_call("cora", "gcn", "degree-aware",
                               {"quant_config": DegreeAwareConfig()},
                               config=QUICK)
        b = TrainJob.from_call("cora", "gcn", "degree-aware",
                               {"quant_config": DegreeAwareConfig()},
                               config=QUICK)
        assert a == b and hash(a) == hash(b)

    def test_config_digest_distinguishes_budgets(self):
        a = TrainJob.from_call("cora", "gcn", "fp32",
                               config=TrainConfig(epochs=3))
        b = TrainJob.from_call("cora", "gcn", "fp32",
                               config=TrainConfig(epochs=4))
        assert a != b

    def test_unknown_flow_rejected(self):
        with pytest.raises(ValueError):
            TrainJob.from_call("cora", "gcn", "float16")


class TestTrainEngine:
    def test_same_seed_deterministic(self, sweep_engine, tmp_path):
        job = JOBS[0]
        first = sweep_engine.run([job])[job]
        fresh = SweepEngine(workers=0, cache_dir=tmp_path / "other-store")
        second = fresh.run([job])[job]
        assert fresh.executed_train_jobs == 1  # disjoint store: retrained
        assert result_key(first) == result_key(second)
        np.testing.assert_array_equal(first.node_bitwidths,
                                      second.node_bitwidths)

    def test_batch_deduplicates(self, sweep_engine):
        job = JOBS[0]
        sweep_engine.run([job, job, job])
        assert sweep_engine.executed_train_jobs == 1

    def test_parallel_identical_to_serial(self, sweep_engine, tmp_path):
        serial = sweep_engine.run(JOBS)
        parallel_engine = SweepEngine(workers=2,
                                      cache_dir=tmp_path / "parallel-cache")
        parallel = parallel_engine.run(JOBS)
        assert parallel_engine.executed_train_jobs == len(JOBS)
        assert parallel_engine.pool_used
        for job in JOBS:
            assert result_key(parallel[job]) == result_key(serial[job]), job
            np.testing.assert_array_equal(parallel[job].node_bitwidths,
                                          serial[job].node_bitwidths)

    def test_warm_replay_trains_zero_models(self, sweep_engine, tmp_path,
                                            monkeypatch):
        with Timer() as cold_t:
            cold = sweep_engine.run(JOBS)
        replay_engine = SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")

        def forbidden(job):
            raise AssertionError(f"warm replay trained a model: {job}")

        monkeypatch.setattr(engine_mod, "_execute_train_job", forbidden)
        with Timer() as warm_t:
            warm = replay_engine.run(JOBS)
        assert replay_engine.executed_train_jobs == 0
        for job in JOBS:
            assert result_key(warm[job]) == result_key(cold[job])
        assert cold_t.elapsed >= 10 * warm_t.elapsed, \
            (cold_t.elapsed, warm_t.elapsed)

    def test_sim_and_train_jobs_mix_in_one_batch(self, sweep_engine):
        from repro.eval.engine import SimJob

        sim = SimJob.from_call("gcnax", "cora", "gcn")
        results = sweep_engine.run([JOBS[0], sim])
        assert sweep_engine.executed_jobs == 2
        assert sweep_engine.executed_train_jobs == 1
        assert results[sim].total_cycles > 0
        assert 0.0 <= results[JOBS[0]].test_accuracy <= 1.0

    def test_fingerprint_tracks_job_recipe(self, sweep_engine):
        base = sweep_engine.job_fingerprint(JOBS[0])
        other_flow = sweep_engine.job_fingerprint(JOBS[2])
        other_seed = sweep_engine.job_fingerprint(JOBS[1])
        other_config = sweep_engine.job_fingerprint(
            TrainJob.from_call("cora", "gcn", "fp32",
                               config=TrainConfig(epochs=9), scale="tiny"))
        other_scale = sweep_engine.job_fingerprint(
            TrainJob.from_call("cora", "gcn", "fp32", config=QUICK,
                               scale="train"))
        assert len({base, other_flow, other_seed, other_config,
                    other_scale}) == 5


class TestAccuracyRunnersThroughEngine:
    CASES = (("cora", "gcn"),)

    def test_accuracy_comparison_warm_rerun_trains_zero(self, sweep_engine,
                                                        monkeypatch):
        cold = run_experiment("accuracy_comparison", cases=self.CASES,
                              config=QUICK).value
        from repro.eval.experiments import clear_caches

        clear_caches()  # drop engine memory; the disk store survives

        def forbidden(job):
            raise AssertionError(f"warm rerun trained a model: {job}")

        monkeypatch.setattr(engine_mod, "_execute_train_job", forbidden)
        warm = run_experiment("accuracy_comparison", cases=self.CASES,
                              config=QUICK).value
        assert warm == cold
        assert sweep_engine.executed_train_jobs == 0

    def test_accuracy_comparison_parallel_identical(self, sweep_engine,
                                                    tmp_path):
        serial = run_experiment("accuracy_comparison", cases=self.CASES,
                                config=QUICK).value
        parallel_engine = SweepEngine(workers=2,
                                      cache_dir=tmp_path / "par-cache")
        previous = engine_mod.set_engine(parallel_engine)
        try:
            parallel = run_experiment("accuracy_comparison",
                                      cases=self.CASES, config=QUICK).value
        finally:
            engine_mod.set_engine(previous)
        assert parallel_engine.pool_used
        assert parallel == serial

    def test_dq_bitwidth_sweep_shares_fp32_with_comparison(self, sweep_engine):
        run_experiment("accuracy_comparison", cases=self.CASES, config=QUICK)
        trained = sweep_engine.executed_train_jobs
        sweep = run_experiment("dq_bitwidth_sweep", dataset="cora",
                               model="gcn", bitwidths=(4,),
                               config=QUICK).value
        # fp32 and dq-int4 for (cora, gcn) already trained for Table VI.
        assert sweep_engine.executed_train_jobs == trained
        assert "fp32" in sweep and "4bit" in sweep

    def test_degree_feature_magnitudes_cached(self, sweep_engine):
        first = run_experiment("degree_feature_magnitudes", models=("gcn",),
                               config=QUICK).value
        trained = sweep_engine.executed_train_jobs
        second = run_experiment("degree_feature_magnitudes", models=("gcn",),
                                config=QUICK).value
        assert sweep_engine.executed_train_jobs == trained
        assert second == first
        assert len(first["gcn"]) > 0

    def test_accuracy_grid_shape_and_dedup(self, sweep_engine):
        grid = run_experiment("accuracy_grid", cases=self.CASES,
                              flows=("fp32",), seeds=(0, 1),
                              config=QUICK).value
        cell = grid["cora-gcn"]["fp32"]
        assert cell["runs"] == 2
        assert cell["std_accuracy"] >= 0.0
        # seeds already trained: a rerun adds nothing
        trained = sweep_engine.executed_train_jobs
        run_experiment("accuracy_grid", cases=self.CASES, flows=("fp32",),
                       seeds=(0, 1), config=QUICK)
        assert sweep_engine.executed_train_jobs == trained


class TestTrainMultipleSeedsDeclarative:
    def test_matches_legacy_path(self, sweep_engine):
        """The TrainJob batch equals training each seed's model on the
        one graph in-process, the serial loop the callable form ran."""
        graph = cached_load_dataset("cora", scale="tiny")
        from repro.nn import train_multiple_seeds

        declarative = train_multiple_seeds("gcn", graph, seeds=[0, 1],
                                           config=QUICK)
        direct = [train(build_model("gcn", graph.feature_dim,
                                    graph.num_classes, seed=seed),
                        graph, config=QUICK).test_accuracy
                  for seed in (0, 1)]
        assert declarative["mean_accuracy"] == float(np.mean(direct))
        assert declarative["std_accuracy"] == float(np.std(direct))
        assert declarative["runs"] == 2


class TestEvaluateMasks:
    def test_matches_separate_evaluate_calls(self):
        graph = cached_load_dataset("cora", scale="tiny")
        model = build_model("gcn", graph.feature_dim, graph.num_classes,
                            seed=0)
        train(model, graph, TrainConfig(epochs=3, patience=100))
        together = evaluate_masks(model, graph,
                                  (graph.val_mask, graph.test_mask))
        separate = [evaluate(model, graph, graph.val_mask),
                    evaluate(model, graph, graph.test_mask)]
        assert together == separate

    def test_single_mask_matches_evaluate(self):
        graph = cached_load_dataset("cora", scale="tiny")
        model = build_model("gin", graph.feature_dim, graph.num_classes,
                            seed=0)
        assert (evaluate_masks(model, graph, (graph.test_mask,))[0]
                == evaluate(model, graph, graph.test_mask))
