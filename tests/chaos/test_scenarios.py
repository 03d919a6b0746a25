"""Scenario model: compilation onto the transport layers, shrinking."""

from __future__ import annotations

import random

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import CloudUnavailable, ConfigError
from repro.chaos import SCENARIOS, ErrorBurst, Scenario
from repro.chaos.scenarios import _UNBOUNDED, BurstyFaultPolicy
from repro.cloud.faults import Throttle
from repro.cloud.memory import InMemoryObjectStore
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE


class TestCatalog:
    def test_catalog_names_match_keys(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name

    def test_standard_scenarios_present(self):
        assert {"baseline", "blackout", "brownout", "flaky", "throttled",
                "latency-storm"} <= set(SCENARIOS)

    def test_every_scenario_has_description(self):
        assert all(s.description for s in SCENARIOS.values())


class TestCompilation:
    def test_loss_bound_is_nominal_s_plus_b_plus_one(self):
        scenario = Scenario(name="x", batch=7, safety=31)
        assert scenario.loss_bound() == 31 + 7 + 1

    def test_seed_flows_into_ginja_config(self):
        config = Scenario(name="x").ginja_config(seed=1234)
        assert config.seed == 1234

    def test_unbounded_safety_mutation_disables_backpressure_only(self):
        scenario = Scenario(name="x", safety=20, unbounded_safety=True)
        config = scenario.ginja_config(seed=0)
        assert config.safety == _UNBOUNDED
        assert config.safety_timeout == _UNBOUNDED
        # ...but the analytic bound still budgets the nominal S: this is
        # what gives the RPO oracle teeth against the mutant.
        assert scenario.loss_bound() == 26
        assert config.batch == scenario.batch

    def test_profiles(self):
        assert Scenario(name="x").profile is POSTGRES_PROFILE
        assert Scenario(name="x", dbms="mysql").profile is MYSQL_PROFILE
        with pytest.raises(ConfigError):
            _ = Scenario(name="x", dbms="oracle").profile

    def test_fault_policy_compiles_outages_and_throttle(self):
        scenario = Scenario(
            name="x", outages=((1.0, 2.0), (5.0, 6.0)),
            error_rate=0.1, throttle=Throttle(rate=2.0, burst=4.0),
        )
        policy = scenario.fault_policy()
        assert not isinstance(policy, BurstyFaultPolicy)
        assert [(o.start, o.end) for o in policy.outages] \
            == [(1.0, 2.0), (5.0, 6.0)]
        assert policy.error_rate == 0.1
        assert policy.throttle is scenario.throttle

    def test_bursts_compile_to_bursty_policy(self):
        burst = ErrorBurst(start=1.0, end=3.0, rate=1.0)
        policy = Scenario(name="x", error_bursts=(burst,)).fault_policy()
        assert isinstance(policy, BurstyFaultPolicy)
        with pytest.raises(CloudUnavailable):
            policy.check("PUT", 2.0, random.Random(0))
        policy.check("PUT", 4.0, random.Random(0))  # outside the burst

    def test_build_cloud_runs_on_the_drill_clock(self):
        clock = ManualClock()
        cloud = Scenario(name="x").build_cloud(
            InMemoryObjectStore(), clock, seed=3
        )
        assert cloud.clock is clock
        cloud.put("k", b"v")
        assert cloud.get("k") == b"v"


class TestErrorBurst:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ErrorBurst(start=2.0, end=1.0, rate=0.5)
        with pytest.raises(ConfigError):
            ErrorBurst(start=0.0, end=1.0, rate=0.0)
        with pytest.raises(ConfigError):
            ErrorBurst(start=0.0, end=1.0, rate=1.5)

    def test_covers_is_inclusive(self):
        burst = ErrorBurst(start=1.0, end=2.0, rate=0.5)
        assert burst.covers(1.0) and burst.covers(2.0)
        assert not burst.covers(0.99) and not burst.covers(2.01)


class TestShrinking:
    def test_baseline_still_offers_workload_shrinks(self):
        names = SCENARIOS["baseline"].simplifications()
        assert names  # checkpoint drop + row halving at minimum

    def test_each_simplification_removes_exactly_one_knob(self):
        scenario = SCENARIOS["flaky"]
        for candidate in scenario.simplifications():
            assert candidate != scenario
            # A candidate never *adds* hostile behaviour.
            assert len(candidate.outages) <= len(scenario.outages)
            assert len(candidate.error_bursts) <= len(scenario.error_bursts)
            assert candidate.rows <= scenario.rows

    def test_fully_shrunk_scenario_reaches_fixpoint(self):
        scenario = Scenario(name="x", rows=10, checkpoint_at=None)
        assert scenario.simplifications() == []

    def test_describe_lists_only_non_defaults(self):
        description = SCENARIOS["blackout"].describe()
        assert description["name"] == "blackout"
        assert "outages" in description
        assert "error_rate" not in description
