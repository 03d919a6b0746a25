"""Ginja — the paper's primary contribution.

A transparent DR middleware that intercepts DBMS file I/O and replicates
it to a cloud object store under a tunable Batch/Safety model:

* :class:`~repro.core.config.GinjaConfig` — B, S, T_B, T_S and friends;
* :mod:`~repro.core.data_model` — the WAL-object / DB-object naming
  scheme of §5.2;
* :class:`~repro.core.cloud_view.CloudView` — the client-side picture of
  what is in the cloud;
* :mod:`~repro.core.commit_pipeline` — Algorithm 2 (CommitQueue, claim
  jobs on the encode stage, T_B timer and reactor lane, the unlock
  rule);
* :mod:`~repro.core.checkpointer` — Algorithm 3 (checkpoint capture,
  dump-vs-incremental decision, garbage collection, point-in-time
  retention);
* :mod:`~repro.core.bootstrap` — Algorithm 1 (Boot / Reboot / Recovery);
* :class:`~repro.core.ginja.Ginja` — the facade that mounts it all over
  a file system;
* :mod:`~repro.core.verification` — §5.4's backup verification.
"""

from repro.core.bootstrap import boot, reboot, recover_files
from repro.core.codec import ObjectCodec
from repro.core.events import Event, EventBus, TraceRecorder
from repro.core.config import GinjaConfig, SharedPoolConfig, TenantPolicy
from repro.core.cloud_view import CloudView
from repro.core.data_model import DBObjectMeta, WALObjectMeta
from repro.core.ginja import Ginja
from repro.core.pitr import RetentionPolicy
from repro.core.verification import VerificationReport, verify_backup

__all__ = [
    "Ginja",
    "GinjaConfig",
    "SharedPoolConfig",
    "TenantPolicy",
    "ObjectCodec",
    "CloudView",
    "WALObjectMeta",
    "DBObjectMeta",
    "boot",
    "reboot",
    "recover_files",
    "RetentionPolicy",
    "verify_backup",
    "VerificationReport",
    "Event",
    "EventBus",
    "TraceRecorder",
]
