"""Stack builder: DBMS + (FUSE) + (Ginja) + simulated cloud.

The three ``fs_mode`` values map to the baselines of the paper's
Figure 5:

* ``native`` — the DBMS writes straight to the (latency-modeled) local
  file system, the "ext4" bar;
* ``fuse``  — an interposer with per-call overhead but no interceptor,
  the "FUSE" bar;
* ``ginja`` — the full middleware.

Latencies are modeled at full scale and slept at ``*_time_scale``, so a
five-minute paper experiment runs in seconds while metering the paper's
time units (see :mod:`repro.cloud.latency`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import MiB
from repro.cloud.latency import LatencyModel, WAN_LATENCY
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.reactor import UploadReactor
from repro.cloud.simulated import SimulatedCloud
from repro.core.config import GinjaConfig
from repro.core.ginja import Ginja
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import DBMSProfile, MYSQL_PROFILE, POSTGRES_PROFILE
from repro.placement.factory import build_placement
from repro.storage.disk import DiskModel, HDD_15K
from repro.storage.interposer import InterposedFS
from repro.storage.memory import MemoryFileSystem

#: Per-FS-call overhead of a FUSE mount.  Paced, not slept (see
#: ``Clock.pace``), so it costs what it says; the benchmark's FUSE-only
#: series (``storage.interposer.fuse_vs_native`` on ``tpcc_relaxed``)
#: measures Figure 5's FUSE bar 9% below native with it — the paper's
#: 7-12% — on 2.3 calls per transaction, each costing more than its
#: 100 us because the crossings sit inside the commit lock the second
#: terminal queues on.
DEFAULT_FUSE_OVERHEAD = 100e-6


@dataclass
class StackConfig:
    """Everything needed to assemble one experimental setup."""

    dbms: str = "postgres"          # "postgres" | "mysql"
    fs_mode: str = "ginja"          # "native" | "fuse" | "ginja"
    ginja: GinjaConfig = field(default_factory=GinjaConfig)
    #: WAL segment size override (None = the engine profile default;
    #: benchmarks shrink it so checkpoints recycle segments quickly).
    wal_segment_size: int | None = 4 * MiB
    auto_checkpoint_bytes: int = 8 * MiB
    auto_checkpoint: bool = True
    disk: DiskModel = HDD_15K
    disk_time_scale: float = 1.0
    cloud_latency: LatencyModel = WAN_LATENCY
    cloud_time_scale: float = 0.1
    fuse_overhead: float = DEFAULT_FUSE_OVERHEAD
    seed: int = 0

    @property
    def profile(self) -> DBMSProfile:
        if self.dbms == "postgres":
            return POSTGRES_PROFILE
        if self.dbms == "mysql":
            return MYSQL_PROFILE
        raise ConfigError(f"unknown dbms {self.dbms!r}")

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            wal_segment_size=self.wal_segment_size,
            auto_checkpoint_bytes=self.auto_checkpoint_bytes,
            auto_checkpoint=self.auto_checkpoint,
        )


@dataclass
class Stack:
    """One assembled setup, ready to create/open a database on."""

    config: StackConfig
    inner_fs: MemoryFileSystem
    fs: object                      # what the DBMS writes to
    cloud: object | None            # SimulatedCloud or PlacementStore
    ginja: Ginja | None
    #: Stores this stack built and therefore owns: anything here with a
    #: ``close()`` (a PlacementStore) is shut down by *every* teardown
    #: path — ``stop()`` and ``crash()`` alike — so fan-out thread
    #: pools never outlive the stack.
    owned_stores: list = field(default_factory=list)

    def create_db(self) -> MiniDB:
        """Initialize the database and (for ginja mode) boot the cloud."""
        db = MiniDB.create(self.inner_fs, self.config.profile,
                           self.config.engine_config())
        if self.ginja is None:
            return db
        db.close()
        self.ginja.start(mode="boot")
        return MiniDB.open(self.ginja.fs, self.config.profile,
                           self.config.engine_config())

    def open_db(self) -> MiniDB:
        return MiniDB.open(self.fs, self.config.profile,
                           self.config.engine_config())

    def stop(self, drain_timeout: float = 30.0) -> None:
        if self.ginja is not None:
            self.ginja.stop(drain_timeout=drain_timeout)
        self._close_owned()

    def crash(self) -> None:
        """Abrupt primary loss: drop in-flight interposer/pipeline state
        without draining (see :meth:`~repro.core.ginja.Ginja.crash`).

        The cloud bucket keeps whatever had been confirmed — recover
        from it with :meth:`~repro.core.ginja.Ginja.recover` to model
        the standby side of the disaster.  A no-op for the native/fuse
        baselines, which have no replication state to lose.  Owned
        multi-provider pools are still closed: the *store* dies with the
        primary process even though the remote buckets survive.
        """
        if self.ginja is not None:
            self.ginja.crash()
        self._close_owned()

    def _close_owned(self) -> None:
        for store in self.owned_stores:
            store.close()


@contextmanager
def running_pools(inflight: int = 64):
    """A started :class:`UploadReactor`, stopped on exit.

    For driving a bare :class:`~repro.core.commit_pipeline
    .CommitPipeline` or :class:`~repro.core.checkpointer
    .CheckpointUploader` — which only ever borrow their reactor — from
    a test, microbenchmark or example, where no :class:`Ginja` or fleet
    exists to own it.
    """
    reactor = UploadReactor(inflight_window=inflight).start()
    try:
        yield reactor
    finally:
        reactor.stop()


def build_stack(config: StackConfig | None = None, **overrides) -> Stack:
    """Assemble a stack; keyword overrides patch a default StackConfig."""
    if config is None:
        config = StackConfig(**overrides)
    elif overrides:
        raise ConfigError("pass either a StackConfig or overrides, not both")
    inner = MemoryFileSystem(
        disk=config.disk, time_scale=config.disk_time_scale
    )
    if config.fs_mode == "native":
        return Stack(config=config, inner_fs=inner, fs=inner, cloud=None,
                     ginja=None)
    if config.fs_mode == "fuse":
        fs = InterposedFS(
            inner, None,
            per_call_overhead=config.fuse_overhead,
            time_scale=1.0,
        )
        return Stack(config=config, inner_fs=inner, fs=fs, cloud=None,
                     ginja=None)
    if config.fs_mode == "ginja":
        owned: list = []
        ginja_config = config.ginja
        if ginja_config.providers > 1 or ginja_config.placement != "mirror-1":
            # Multi-provider placement: each provider carries its own
            # Fault/Meter stack, so the single SimulatedCloud is
            # replaced wholesale (Ginja still wraps the placement store
            # with the Tracing/Retry portion, as with any cloud).
            cloud = build_placement(
                ginja_config.providers, ginja_config.placement,
                seed=config.seed,
                latency=config.cloud_latency,
                time_scale=config.cloud_time_scale,
            )
            owned.append(cloud)
        else:
            cloud = SimulatedCloud(
                backend=InMemoryObjectStore(),
                latency=config.cloud_latency,
                time_scale=config.cloud_time_scale,
                seed=config.seed,
            )
        ginja = Ginja(
            inner, cloud, config.profile, ginja_config,
            fuse_overhead=config.fuse_overhead,
            time_scale=1.0,
        )
        return Stack(config=config, inner_fs=inner, fs=ginja.fs, cloud=cloud,
                     ginja=ginja, owned_stores=owned)
    raise ConfigError(f"unknown fs_mode {config.fs_mode!r}")
