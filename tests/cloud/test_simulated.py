"""Simulated cloud: latency accounting, fault injection, metering."""

from __future__ import annotations

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import CloudUnavailable
from repro.cloud.faults import FaultPolicy, Outage
from repro.cloud.latency import LatencyModel, SAME_REGION_LATENCY, WAN_LATENCY
from repro.cloud.simulated import SimulatedCloud


class TestBasicBehaviour:
    def test_acts_like_a_store(self, cloud):
        cloud.put("k", b"abc")
        assert cloud.get("k") == b"abc"
        assert [i.key for i in cloud.list()] == ["k"]
        cloud.delete("k")
        assert cloud.list() == []

    def test_rejects_negative_time_scale(self):
        with pytest.raises(ValueError):
            SimulatedCloud(time_scale=-1)


class TestLatency:
    def test_put_sleeps_scaled_latency(self):
        clock = ManualClock()
        model = LatencyModel(put_base=10.0, put_bytes_per_sec=1e6)
        cloud = SimulatedCloud(latency=model, time_scale=0.5, clock=clock)
        cloud.put("k", b"x" * 1_000_000)  # modeled: 10 + 1 = 11s
        assert clock.now() == pytest.approx(5.5)

    def test_meter_records_unscaled_latency(self):
        clock = ManualClock()
        model = LatencyModel(put_base=2.0)
        cloud = SimulatedCloud(latency=model, time_scale=0.0, clock=clock)
        cloud.put("k", b"x")
        assert cloud.meter.puts.mean_latency == pytest.approx(2.0)
        assert clock.now() == 0.0  # nothing slept

    def test_wan_preset_matches_table3_scale(self):
        """A ~3 MB PUT over the paper's WAN takes roughly 2-3 seconds."""
        latency = WAN_LATENCY.put_latency(3_018_000, rng=None)
        assert 2.0 < latency < 3.5

    def test_jitter_is_deterministic_per_seed(self):
        cloud_a = SimulatedCloud(latency=WAN_LATENCY, time_scale=0.0, seed=7)
        cloud_b = SimulatedCloud(latency=WAN_LATENCY, time_scale=0.0, seed=7)
        cloud_a.put("k", b"x" * 100)
        cloud_b.put("k", b"x" * 100)
        assert cloud_a.meter.puts.latency_total == cloud_b.meter.puts.latency_total


class TestStatIsNotAList:
    """``stat`` / ``exists`` are listing-class reads: fault-checked as
    LIST, but neither billed nor latency-paced — a provider answers
    them from the index a LIST reads, and the bill counts four verbs."""

    def test_no_list_is_billed_and_no_latency_is_paid(self):
        clock = ManualClock()
        cloud = SimulatedCloud(
            latency=SAME_REGION_LATENCY, time_scale=1.0, clock=clock
        )
        cloud.put("k", b"abc")
        paced = clock.now()
        assert cloud.exists("k") and not cloud.exists("k/")
        assert cloud.stat("k").size == 3 and cloud.stat("nope") is None
        assert cloud.meter.lists.count == 0
        assert clock.now() == paced

    def test_an_outage_still_fails_them(self):
        clock = ManualClock()
        faults = FaultPolicy(outages=[Outage(start=5.0, end=10.0)])
        cloud = SimulatedCloud(time_scale=0.0, faults=faults, clock=clock)
        cloud.put("k", b"x")
        clock.advance(6)
        with pytest.raises(CloudUnavailable):
            cloud.exists("k")
        with pytest.raises(CloudUnavailable):
            cloud.stat("k")
        clock.advance(6)
        assert cloud.exists("k")


class TestMetering:
    def test_counts_and_bytes(self, cloud):
        cloud.put("a", b"12345")
        cloud.put("b", b"123")
        cloud.get("a")
        cloud.list()
        cloud.delete("b")
        meter = cloud.meter
        assert meter.puts.count == 2
        assert meter.puts.bytes == 8
        assert meter.gets.count == 1
        assert meter.gets.bytes == 5
        assert meter.lists.count == 1
        assert meter.deletes.count == 1
        assert meter.stored_bytes == 5

    def test_overwrite_does_not_double_count_storage(self, cloud):
        cloud.put("k", b"12345")
        cloud.put("k", b"123")
        assert cloud.meter.stored_bytes == 3

    def test_storage_integral(self):
        clock = ManualClock()
        cloud = SimulatedCloud(time_scale=0.0, clock=clock)
        cloud.put("k", b"x" * 100)
        clock.advance(10)
        assert cloud.meter.byte_seconds(cloud.elapsed()) == pytest.approx(1000)
        cloud.delete("k")
        clock.advance(5)
        assert cloud.meter.byte_seconds(cloud.elapsed()) == pytest.approx(1000)

    def test_average_stored_bytes(self):
        clock = ManualClock()
        cloud = SimulatedCloud(time_scale=0.0, clock=clock)
        cloud.put("k", b"x" * 100)
        clock.advance(10)
        avg = cloud.meter.average_stored_bytes(0.0, cloud.elapsed())
        assert avg == pytest.approx(100)

    def test_peak_storage(self, cloud):
        cloud.put("a", b"x" * 10)
        cloud.put("b", b"x" * 20)
        cloud.delete("a")
        assert cloud.meter.peak_stored_bytes == 30
        assert cloud.meter.stored_bytes == 20


class TestFaults:
    def test_forced_failure(self):
        faults = FaultPolicy()
        cloud = SimulatedCloud(time_scale=0.0, faults=faults)
        faults.fail_next()
        with pytest.raises(CloudUnavailable):
            cloud.put("k", b"x")
        cloud.put("k", b"x")  # next request succeeds

    def test_failed_put_stores_nothing(self):
        faults = FaultPolicy()
        cloud = SimulatedCloud(time_scale=0.0, faults=faults)
        faults.fail_next()
        with pytest.raises(CloudUnavailable):
            cloud.put("k", b"x")
        assert cloud.list() == []
        assert cloud.meter.puts.count == 0

    def test_outage_window(self):
        clock = ManualClock()
        faults = FaultPolicy(outages=[Outage(start=5.0, end=10.0)])
        cloud = SimulatedCloud(time_scale=0.0, faults=faults, clock=clock)
        cloud.put("before", b"x")
        clock.advance(6)
        with pytest.raises(CloudUnavailable):
            cloud.put("during", b"x")
        clock.advance(6)
        cloud.put("after", b"x")
        assert [i.key for i in cloud.list()] == ["after", "before"]

    def test_error_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(error_rate=1.5)

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            Outage(start=5.0, end=1.0)

    def test_error_rate_one_always_fails(self):
        cloud = SimulatedCloud(time_scale=0.0, faults=FaultPolicy(error_rate=1.0))
        with pytest.raises(CloudUnavailable):
            cloud.get("k")
