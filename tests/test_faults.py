"""The deterministic fault-injection harness (:mod:`repro.faults`)."""

import os

import pytest

from repro import faults
from repro.faults import (FAULT_KINDS, FaultInjector, FaultPlan,
                         InjectedFault, active_injector, inject_faults,
                         parse_fault_spec)


class TestFaultPlan:
    def test_parse_round_trips_through_spec(self):
        plan = parse_fault_spec("kill=0.2,corrupt_artifact=1:1,raise=0.5", seed=7)
        assert plan.rate("kill") == 0.2
        assert plan.rate("corrupt_artifact") == 1.0
        assert plan.cap("corrupt_artifact") == 1
        assert plan.cap("kill") is None
        assert plan.seed == 7
        assert parse_fault_spec(plan.spec(), seed=7) == plan

    def test_parse_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("explode=1.0")
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_fault_spec("kill=lots")

    def test_decide_is_deterministic_and_seeded(self):
        plan = FaultPlan(rates=(("raise", 0.5),), seed=3)
        tokens = [f"job-{i}" for i in range(200)]
        first = [plan.decide("raise", t) for t in tokens]
        assert first == [plan.decide("raise", t) for t in tokens]
        # Roughly half fire, and a different seed picks different victims.
        assert 50 < sum(first) < 150
        other = FaultPlan(rates=(("raise", 0.5),), seed=4)
        assert first != [other.decide("raise", t) for t in tokens]

    def test_rate_extremes(self):
        plan = FaultPlan(rates=(("raise", 1.0), ("kill", 0.0)), seed=0)
        assert all(plan.decide("raise", f"t{i}") for i in range(20))
        assert not any(plan.decide("kill", f"t{i}") for i in range(20))


class TestFaultInjector:
    def test_cap_bounds_firings(self):
        injector = FaultInjector(parse_fault_spec("raise=1:2"))
        fired = [injector.should_fire("raise", f"t{i}") for i in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.fired["raise"] == 2

    def test_on_job_fires_only_on_first_attempt(self):
        injector = FaultInjector(parse_fault_spec("raise=1"))
        with pytest.raises(InjectedFault):
            injector.on_job("job", attempt=0)
        injector.on_job("job", attempt=1)  # retries converge

    def test_kill_downgrades_to_raise_outside_worker(self):
        injector = FaultInjector(parse_fault_spec("kill=1"))
        with pytest.raises(InjectedFault, match="downgraded"):
            injector.on_job("job", attempt=0)

    def test_hang_downgrades_to_raise_without_timeout(self):
        injector = FaultInjector(parse_fault_spec("hang=1"))
        with pytest.raises(InjectedFault, match="the job has no timeout"):
            injector.on_job("job", attempt=0)

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "worker"])
    def test_hang_honours_the_engine_timeout(self, tmp_path, monkeypatch,
                                            workers):
        """A hang sleeps past the deadline the engine enforces, serial
        or in a worker, so the job fails as a timeout with no deadline
        in the environment."""
        from repro.eval.engine import SimJob, SweepEngine

        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        engine = SweepEngine(workers=workers, cache_dir=tmp_path,
                             timeout=0.5, retries=0)
        jobs = [SimJob.from_call(name, "cora", "gcn")
                for name in ("gcnax", "hygcn")]
        with inject_faults(hang=1.0):
            engine.run(jobs, on_error="degrade")
        assert [(f.kind, f.error_type) for f in engine.failures] \
            == [("timeout", "JobTimeout")] * len(jobs)

    def test_cache_readonly_raises_permission_error(self):
        injector = FaultInjector(parse_fault_spec("cache_readonly=1"))
        with pytest.raises(PermissionError):
            injector.on_artifact_write_start("some-key")


class TestActivation:
    def test_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        assert active_injector() is None

    def test_context_manager_sets_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        with inject_faults(raise_=1.0, seed=5) as injector:
            assert os.environ[faults.ENV_SPEC] == "raise=1"
            assert os.environ[faults.ENV_SEED] == "5"
            assert active_injector() is injector
            assert injector.plan.seed == 5
        assert faults.ENV_SPEC not in os.environ
        assert active_injector() is None

    def test_context_manager_tuple_sets_cap(self):
        with inject_faults(corrupt_artifact=(1.0, 2)) as injector:
            assert injector.plan.cap("corrupt_artifact") == 2

    def test_spec_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            with inject_faults("raise=1", kill=0.5):
                pass

    def test_injector_persists_per_env_key(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "raise=1:1")
        monkeypatch.setenv(faults.ENV_SEED, "0")
        first = active_injector()
        assert first.should_fire("raise", "t")
        # Same env: same instance, so the cap survives repeated lookups.
        assert active_injector() is first
        monkeypatch.setenv(faults.ENV_SEED, "1")
        assert active_injector() is not first

    def test_all_kinds_parse(self):
        spec = ",".join(f"{kind}=0.1" for kind in FAULT_KINDS)
        plan = parse_fault_spec(spec)
        assert {kind for kind, _ in plan.rates} == set(FAULT_KINDS)


class TestServeRequestFaults:
    """The request-path kinds the serve daemon applies at POST /run."""

    def test_serve_kinds_registered(self):
        assert {"serve_drop", "serve_delay", "serve_reject"} <= set(FAULT_KINDS)

    def test_on_request_fires_only_on_attempt_zero(self):
        injector = FaultInjector(parse_fault_spec("serve_reject=1"))
        assert injector.on_request("token", attempt=1) is None
        assert injector.on_request("token", attempt=0) == "reject"

    def test_on_request_none_without_serve_rates(self):
        injector = FaultInjector(parse_fault_spec("kill=1,hang=1"))
        assert injector.on_request("token") is None

    def test_on_request_priority_and_caps(self):
        injector = FaultInjector(
            parse_fault_spec("serve_drop=1:1,serve_reject=1"))
        assert injector.on_request("a") == "drop"    # drop outranks reject
        assert injector.on_request("b") == "reject"  # drop cap exhausted

    def test_on_request_delay_action(self):
        injector = FaultInjector(parse_fault_spec("serve_delay=1"))
        assert injector.on_request("token") == "delay"


class TestNetTransferFaults:
    """The hostile-network kinds both ends of artifact distribution
    consult: the serve daemon with ``net|<id>`` tokens, the remote
    fetcher with ``recv|<id>`` tokens."""

    def test_net_kinds_registered(self):
        assert {"net_truncate", "net_corrupt", "net_503",
                "net_stall"} <= set(FAULT_KINDS)

    def test_on_transfer_fires_only_on_attempt_zero(self):
        injector = FaultInjector(parse_fault_spec("net_corrupt=1"))
        assert injector.on_transfer("net|art_x", attempt=1) is None
        assert injector.on_transfer("net|art_x", attempt=0) == "corrupt"

    def test_on_transfer_none_without_net_rates(self):
        injector = FaultInjector(parse_fault_spec("serve_reject=1,kill=1"))
        assert injector.on_transfer("net|art_x") is None

    def test_on_transfer_priority_and_caps(self):
        injector = FaultInjector(
            parse_fault_spec("net_truncate=1:1,net_503=1"))
        assert injector.on_transfer("a") == "truncate"  # outranks 503
        assert injector.on_transfer("b") == "503"       # cap exhausted

    @pytest.mark.parametrize("kind,action", [
        ("net_truncate", "truncate"), ("net_corrupt", "corrupt"),
        ("net_503", "503"), ("net_stall", "stall")])
    def test_every_net_kind_maps_to_its_action(self, kind, action):
        injector = FaultInjector(parse_fault_spec(f"{kind}=1"))
        assert injector.on_transfer("token") == action

    def test_server_and_client_tokens_decide_independently(self):
        # The same artifact gets distinct damage decisions on each end
        # of the wire — a plan at rate 0.5 hits some ids server-side,
        # others client-side, and the decision stays deterministic.
        injector = FaultInjector(parse_fault_spec("net_corrupt=0.5", seed=9))
        ids = [f"art_{i:016x}" for i in range(64)]
        server = [injector.plan.decide("net_corrupt", f"net|{i}")
                  for i in ids]
        client = [injector.plan.decide("net_corrupt", f"recv|{i}")
                  for i in ids]
        assert server != client
        assert server == [injector.plan.decide("net_corrupt", f"net|{i}")
                          for i in ids]
