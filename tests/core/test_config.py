"""GinjaConfig validation — the §5.1 parameter constraints."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.common.errors import ConfigError
from repro.core.config import GinjaConfig, SharedPoolConfig, TenantPolicy
from repro.core.pitr import RetentionPolicy


class TestDefaults:
    def test_defaults_are_valid(self):
        config = GinjaConfig()
        assert config.batch <= config.safety
        assert config.uploaders == 5  # the paper's evaluated setting
        assert config.max_object_bytes == 20 * 1000 * 1000  # footnote 3
        assert config.dump_threshold == 1.5  # Alg. 3's 150%
        assert not config.retention.enabled

    def test_no_loss_constructor(self):
        config = GinjaConfig.no_loss()
        assert config.batch == 1 and config.safety == 1

    def test_no_loss_accepts_overrides(self):
        config = GinjaConfig.no_loss(uploaders=2)
        assert config.uploaders == 2


class TestValidation:
    def test_batch_must_be_positive(self):
        with pytest.raises(ConfigError):
            GinjaConfig(batch=0)

    def test_safety_must_be_positive(self):
        with pytest.raises(ConfigError):
            GinjaConfig(safety=0, batch=1)

    def test_batch_cannot_exceed_safety(self):
        # B > S would deadlock: a full batch could never assemble
        # without first blocking the DBMS (§5.1: B should be << S).
        with pytest.raises(ConfigError):
            GinjaConfig(batch=100, safety=50)

    def test_timeouts_positive(self):
        with pytest.raises(ConfigError):
            GinjaConfig(batch_timeout=0)
        with pytest.raises(ConfigError):
            GinjaConfig(safety_timeout=-1)

    def test_uploaders_positive(self):
        with pytest.raises(ConfigError):
            GinjaConfig(uploaders=0)

    def test_object_cap_floor(self):
        with pytest.raises(ConfigError):
            GinjaConfig(max_object_bytes=1024)

    def test_encryption_requires_password(self):
        with pytest.raises(ConfigError):
            GinjaConfig(encrypt=True)
        GinjaConfig(encrypt=True, password="pw")  # fine

    def test_dump_threshold_floor(self):
        with pytest.raises(ConfigError):
            GinjaConfig(dump_threshold=0.9)


class TestRetentionPolicy:
    def test_none_disabled(self):
        assert not RetentionPolicy.none().enabled

    def test_keep_enabled(self):
        policy = RetentionPolicy.keep(4)
        assert policy.enabled and policy.generations == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RetentionPolicy(generations=-1)


class TestSharedPolicySplit:
    """The fleet refactor's config split: shared() / policy() / compose()."""

    def test_split_covers_every_field_exactly_once(self):
        """Every knob is a dataclass field of exactly one half, and the
        flat view declares none of its own: it exposes exactly their
        union and rejects any other name."""
        shared = {f.name for f in fields(SharedPoolConfig)}
        policy = {f.name for f in fields(TenantPolicy)}
        assert shared.isdisjoint(policy)
        assert len(shared | policy) == 28
        config = GinjaConfig()
        exposed = {name for name in vars(config) if not name.startswith("_")}
        assert exposed == shared | policy
        for name in shared:
            assert getattr(config, name) == getattr(config.shared(), name)
        for name in policy:
            assert getattr(config, name) == getattr(config.policy(), name)
        with pytest.raises(TypeError, match="bogus"):
            GinjaConfig(bogus=1)
        for gone in ("encode_inline", "dispatch_window", "dispatch_hysteresis",
                     "trace_capacity", "reactor_io_threads", "mac_default_key",
                     "encoders"):
            with pytest.raises(TypeError, match=gone):
                GinjaConfig(**{gone: 1})

    def test_view_is_read_only(self):
        """The halves are frozen, so the view over them is too — a
        mutated view would silently disagree with shared()/policy()."""
        config = GinjaConfig()
        with pytest.raises(AttributeError, match="read-only"):
            config.coalesce_writes = False
        assert config.coalesce_writes is True

    def test_compose_round_trips(self):
        config = GinjaConfig(
            batch=7, safety=70, uploaders=2, downloaders=3,
            compress=True, max_retries=9, seed=42,
            retention=RetentionPolicy.keep(3),
        )
        rebuilt = GinjaConfig.compose(config.shared(), config.policy())
        assert rebuilt == config

    def test_compose_validates_cross_field(self):
        with pytest.raises(ConfigError):
            GinjaConfig.compose(
                SharedPoolConfig(), TenantPolicy(batch=10, safety=5)
            )
        with pytest.raises(ConfigError):
            GinjaConfig.compose(SharedPoolConfig(), TenantPolicy(encrypt=True))

    def test_compose_default_policy(self):
        config = GinjaConfig.compose(SharedPoolConfig(downloaders=8))
        assert config.downloaders == 8
        assert config.batch == TenantPolicy().batch

    def test_compose_copies_retry_budgets(self):
        shared = SharedPoolConfig(retry_budgets={"PUT": 2})
        config = GinjaConfig.compose(shared)
        assert config.retry_budgets == {"PUT": 2}
        # One shared half backs every tenant's view, so the one
        # mutable value in it is frozen at construction.
        with pytest.raises(TypeError):
            config.retry_budgets["PUT"] = 99
        assert shared.retry_budgets == {"PUT": 2}

    def test_shared_pool_config_validation(self):
        with pytest.raises(ConfigError):
            SharedPoolConfig(prefetch_window=0)
        with pytest.raises(ConfigError):
            SharedPoolConfig(downloaders=0)
        with pytest.raises(ConfigError):
            SharedPoolConfig(retry_jitter=2.0)


class TestWindowValidationSymmetry:
    """Both config halves reject zero windows eagerly (the old
    asymmetry: GinjaConfig validated and TenantPolicy did not, so a
    bad policy only surfaced at compose time inside add_tenant)."""

    def test_shared_reactor_window_positive(self):
        with pytest.raises(ConfigError, match="reactor_inflight"):
            SharedPoolConfig(reactor_inflight=0)

    def test_ginja_reactor_window_positive(self):
        with pytest.raises(ConfigError, match="reactor_inflight"):
            GinjaConfig(reactor_inflight=0)

    def test_policy_uploaders_positive(self):
        with pytest.raises(ConfigError, match="uploaders"):
            TenantPolicy(uploaders=0)

    def test_policy_batch_and_safety_positive(self):
        with pytest.raises(ConfigError):
            TenantPolicy(batch=0)
        with pytest.raises(ConfigError):
            TenantPolicy(safety=0, batch=1)
        with pytest.raises(ConfigError):
            TenantPolicy(batch=100, safety=50)

    def test_policy_timeouts_positive(self):
        with pytest.raises(ConfigError):
            TenantPolicy(batch_timeout=0)
        with pytest.raises(ConfigError):
            TenantPolicy(safety_timeout=-1)

    def test_policy_dispatch_and_object_cap(self):
        with pytest.raises(TypeError):  # went with the controller: no alias
            TenantPolicy(encode_dispatch="inline")
        with pytest.raises(ConfigError):
            TenantPolicy(max_object_bytes=1024)

    def test_policy_encryption_requires_password(self):
        with pytest.raises(ConfigError):
            TenantPolicy(encrypt=True)

    def test_policy_dump_threshold_floor(self):
        with pytest.raises(ConfigError):
            TenantPolicy(dump_threshold=0.5)

    def test_valid_policy_still_composes(self):
        config = GinjaConfig.compose(
            SharedPoolConfig(reactor_inflight=16),
            TenantPolicy(batch=5, safety=50, uploaders=3),
        )
        assert config.reactor_inflight == 16
        assert config.uploaders == 3


#: One row per validation rule: (owning half, bad kwargs, message).
RULES = [
    (SharedPoolConfig, dict(downloaders=0),
     "need at least one downloader thread"),
    (SharedPoolConfig, dict(prefetch_window=0), "prefetch_window must be >= 1"),
    (SharedPoolConfig, dict(retry_backoff=-1.0),
     "retry backoff values must be positive"),
    (SharedPoolConfig, dict(retry_backoff_cap=0.0),
     "retry backoff values must be positive"),
    (SharedPoolConfig, dict(retry_jitter=2.0),
     "retry_jitter must be within [0, 1]"),
    (SharedPoolConfig, dict(reactor_inflight=0),
     "reactor_inflight must be >= 1"),
    (SharedPoolConfig, dict(providers=0), "need at least one provider"),
    (SharedPoolConfig, dict(providers=2, placement="mirror-3"), "mirror-3"),
    (TenantPolicy, dict(batch=0), "batch (B) must be >= 1"),
    (TenantPolicy, dict(batch=1, safety=0), "safety (S) must be >= 1"),
    (TenantPolicy, dict(batch=100, safety=50),
     "batch (B) must not exceed safety (S)"),
    (TenantPolicy, dict(batch_timeout=0), "timeouts must be positive"),
    (TenantPolicy, dict(safety_timeout=-1), "timeouts must be positive"),
    (TenantPolicy, dict(uploaders=0), "need at least one upload slot"),
    (TenantPolicy, dict(max_object_bytes=1024),
     "max_object_bytes unreasonably small"),
    (TenantPolicy, dict(encrypt=True), "encryption requires a password"),
    (TenantPolicy, dict(dump_threshold=0.9),
     "dump_threshold below 1.0 would dump constantly"),
    (TenantPolicy, dict(tuner_window=0), "tuner_window must be >= 1"),
    (TenantPolicy, dict(tuner_hysteresis=0.5),
     "tuner_hysteresis must be >= 1.0"),
    (TenantPolicy, dict(target_commit_latency=0.0),
     "target_commit_latency must be positive"),
    (TenantPolicy, dict(target_commit_latency=20.0, safety_timeout=10.0),
     "target_commit_latency must be below safety_timeout"),
    (TenantPolicy, dict(target_commit_latency=0.1, budget_dollars=0.0),
     "budget_dollars must be positive"),
    (TenantPolicy, dict(budget_dollars=1.0),
     "budget_dollars requires target_commit_latency"),
]


class TestOneValidatorPerRule:
    """Each rule lives in one half's ``__post_init__`` and nowhere else,
    so the half's constructor, the flat keyword constructor and
    ``compose`` all fail with the very same ``ConfigError``."""

    @staticmethod
    def _message(build) -> str:
        with pytest.raises(ConfigError) as excinfo:
            build()
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "half, bad, message", RULES,
        ids=[f"{half.__name__}-{'-'.join(bad)}" for half, bad, _ in RULES],
    )
    def test_same_error_from_half_flat_and_compose(self, half, bad, message):
        def compose():
            if half is SharedPoolConfig:
                return GinjaConfig.compose(SharedPoolConfig(**bad))
            return GinjaConfig.compose(SharedPoolConfig(), TenantPolicy(**bad))

        from_half = self._message(lambda: half(**bad))
        assert message in from_half
        assert self._message(lambda: GinjaConfig(**bad)) == from_half
        assert self._message(compose) == from_half

    def test_each_message_is_written_once(self):
        """The acceptance check 'declared once', as a test: no message
        string of the table occurs twice in the config module."""
        import inspect

        import repro.core.config as module

        source = inspect.getsource(module)
        for _half, _bad, message in RULES:
            if message == "mirror-3":
                continue  # formatted at raise time, not a literal
            assert source.count(message) == 1, message
