"""Business-hours sync schedule (the §3 extension)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.core.config import GinjaConfig
from repro.core.schedule import SyncSchedule, hour_of


def at_hour(hour: int) -> SyncSchedule:
    return SyncSchedule(business_timeout=10.0, off_hours_timeout=60.0,
                        hour_fn=lambda: hour)


class TestSchedule:
    def test_business_hours_use_short_timeout(self):
        assert at_hour(10).current_timeout() == 10.0

    def test_off_hours_use_long_timeout(self):
        assert at_hour(3).current_timeout() == 60.0
        assert at_hour(17).current_timeout() == 60.0  # end is exclusive

    def test_window_edges(self):
        assert at_hour(9).in_business_hours()
        assert not at_hour(8).in_business_hours()

    def test_daily_sync_budget(self):
        schedule = at_hour(10)
        # 8h at 360/h + 16h at 60/h = 2880 + 960.
        assert schedule.daily_sync_budget() == pytest.approx(3840)

    def test_nine_to_five_budget_solver(self):
        schedule = SyncSchedule.nine_to_five(budget_syncs_per_day=4000)
        assert schedule.daily_sync_budget() == pytest.approx(4000, rel=1e-6)
        # §3's ~3x business-hours bias.
        ratio = schedule.off_hours_timeout / schedule.business_timeout
        assert ratio == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyncSchedule(business_timeout=0)
        with pytest.raises(ConfigError):
            SyncSchedule(business_start=17, business_end=9)
        with pytest.raises(ConfigError):
            SyncSchedule(business_start=-1)
        with pytest.raises(ConfigError):
            SyncSchedule.nine_to_five(0)


class TestSessionClock:
    """Regression: the schedule used to read ``time.localtime()`` even
    when the caller ran on a :class:`ManualClock`, so virtual-clock
    drills resolved T_B from the *host's* hour — nondeterministically.
    ``current_timeout(now=...)`` must derive the hour from the session
    clock's seconds instead."""

    def test_hour_of_treats_epoch_as_midnight(self):
        assert hour_of(0.0) == 0
        assert hour_of(8 * 3600) == 8
        assert hour_of(23 * 3600 + 3599) == 23
        assert hour_of(24 * 3600) == 0  # wraps at the day boundary

    def test_manual_clock_crosses_the_9am_boundary(self):
        schedule = SyncSchedule(business_timeout=10.0,
                                off_hours_timeout=60.0)
        # 8:59:59 virtual — still off hours, whatever the host clock says.
        assert schedule.current_timeout(now=9 * 3600 - 1) == 60.0
        # One virtual second later the business window opens.
        assert schedule.current_timeout(now=9 * 3600) == 10.0
        assert schedule.current_timeout(now=9 * 3600 + 1) == 10.0
        # ... and closes at 17:00 (end exclusive).
        assert schedule.current_timeout(now=17 * 3600) == 60.0

    def test_second_virtual_day_repeats_the_cycle(self):
        schedule = SyncSchedule(business_timeout=10.0,
                                off_hours_timeout=60.0)
        day = 24 * 3600
        assert schedule.current_timeout(now=day + 3 * 3600) == 60.0
        assert schedule.current_timeout(now=day + 10 * 3600) == 10.0

    def test_explicit_hour_fn_beats_the_session_clock(self):
        # An injected hour source is the deliberate override; only the
        # wall-clock *default* is bypassed by ``now``.
        assert at_hour(10).current_timeout(now=3 * 3600) == 10.0
        assert at_hour(3).current_timeout(now=10 * 3600) == 60.0

    def test_config_threads_now_through(self):
        config = GinjaConfig(sync_schedule=SyncSchedule(
            business_timeout=10.0, off_hours_timeout=60.0))
        assert config.effective_batch_timeout(now=8 * 3600) == 60.0
        assert config.effective_batch_timeout(now=9 * 3600 + 1) == 10.0


class TestConfigIntegration:
    def test_effective_timeout_without_schedule(self):
        config = GinjaConfig(batch_timeout=2.5)
        assert config.effective_batch_timeout() == 2.5

    def test_effective_timeout_with_schedule(self):
        config = GinjaConfig(sync_schedule=at_hour(10))
        assert config.effective_batch_timeout() == 10.0
        config_night = GinjaConfig(sync_schedule=at_hour(2))
        assert config_night.effective_batch_timeout() == 60.0

    def test_pipeline_flushes_on_scheduled_timeout(self, reactor):
        """End to end: a business-hours schedule drives T_B batching."""
        from repro.common.events import EventBus
        from repro.cloud.simulated import SimulatedCloud
        from repro.cloud.transport import build_transport
        from repro.core.cloud_view import CloudView
        from repro.core.codec import ObjectCodec
        from repro.core.commit_pipeline import CommitPipeline

        schedule = SyncSchedule(business_timeout=0.05, off_hours_timeout=60.0,
                                hour_fn=lambda: 10)
        config = GinjaConfig(batch=1000, safety=2000, batch_timeout=60.0,
                             safety_timeout=60.0, uploaders=1,
                             sync_schedule=schedule)
        cloud = SimulatedCloud(time_scale=0.0)
        bus = EventBus()
        transport = build_transport(cloud, config, bus=bus)
        pipeline = CommitPipeline(config, transport, ObjectCodec(),
                                  CloudView(), reactor, bus)
        pipeline.start()
        try:
            pipeline.submit("seg", 0, b"x")
            # Only the scheduled 50 ms T_B can flush this batch of one.
            assert pipeline.drain(timeout=5.0)
            assert len(cloud.list("WAL/")) == 1
        finally:
            pipeline.stop(drain_timeout=5.0)
