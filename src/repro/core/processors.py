"""Database processors: classify the intercepted call stream (Table 1).

The paper's prototype has one small processor module per DBMS ("around
200 lines of code each").  Here the per-DBMS knowledge lives in the
:class:`~repro.db.profiles.DBMSProfile` (shared with the engine so the
two sides cannot drift), and the processor is the generic routing logic:

* WAL commit writes → the commit pipeline (Algorithm 2);
* checkpoint begin/DB-file/checkpoint end writes → the checkpoint
  collector (Algorithm 3);
* everything else (reads, truncates, renames, unlinks) is observed but
  needs no cloud action — WAL-object GC is driven by timestamps, not by
  the DBMS deleting local segments.
"""

from __future__ import annotations

import threading

from repro.core.checkpointer import CheckpointCollector
from repro.core.commit_pipeline import CommitPipeline
from repro.db.profiles import DBMSProfile, WriteKind
from repro.storage.interposer import FSInterceptor


class DatabaseProcessor(FSInterceptor):
    """Routes intercepted file-system calls into Ginja's two pipelines."""

    def __init__(
        self,
        profile: DBMSProfile,
        pipeline: CommitPipeline,
        collector: CheckpointCollector,
    ):
        self._profile = profile
        self._pipeline = pipeline
        self._collector = collector
        # classify_write is stateful for MySQL ("first data-file write"
        # begins a checkpoint); serialize classification.
        self._classify_lock = threading.Lock()

    @property
    def profile(self) -> DBMSProfile:
        return self._profile

    # -- interception hooks -------------------------------------------------------

    def before_write(self, path: str, offset: int, data: bytes) -> None:
        # §5.3: no local DB-file write may land while a dump snapshot is
        # being assembled.  WAL writes pass through — "this does not
        # block database commits".
        if not self._profile.is_wal_path(path):
            self._collector.wait_if_frozen()

    def after_write(self, path: str, offset: int, data: bytes) -> None:
        with self._classify_lock:
            kind = self._profile.classify_write(
                path, offset, self._collector.in_checkpoint
            )
            if kind is WriteKind.CHECKPOINT_BEGIN:
                self._collector.begin()
        if kind is WriteKind.WAL_COMMIT:
            self._pipeline.submit(path, offset, data)
        elif kind is WriteKind.CHECKPOINT_BEGIN:
            self._collector.add_write(path, offset, data)
        elif kind is WriteKind.DB_FILE:
            self._collector.add_write(path, offset, data)
        elif kind is WriteKind.CHECKPOINT_END:
            self._collector.add_write(path, offset, data)
            self._collector.end()

    # fsync / truncate / rename / unlink need no cloud-side action: the
    # data plane already replicated the bytes, and object GC is timestamp
    # driven.  They are still interceptable for diagnostics.

