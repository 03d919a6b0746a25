"""MiniDB — the transactional DBMS substrate.

The paper's Ginja prototype sits under unmodified PostgreSQL 9.3 and
MySQL 5.7.  Those engines are not available here, so this package
implements a from-scratch write-ahead-logging storage engine whose
*on-disk behaviour* — file layout, page sizes, write granularity, and
the three events of the paper's Table 1 — mirrors each of them:

=====================  ==========================  =========================
                       PostgreSQL profile          MySQL/InnoDB profile
=====================  ==========================  =========================
WAL files              ``pg_xlog/<24-hex>``        ``ib_logfile0/1`` ring
WAL page size          8 KiB                       512 B blocks
table page size        8 KiB (``base/<table>``)    16 KiB (``ibdata``/.ibd)
checkpoint style       sharp (periodic)            fuzzy (small batches)
checkpoint begin       write to ``pg_clog/0000``   first data-file write
checkpoint end         write to global/pg_control  ib_logfile0 @512/1536
=====================  ==========================  =========================

The engine provides real durability semantics: transactions buffer
writes, commit by synchronously flushing WAL pages, table files are only
updated at checkpoints, and :meth:`MiniDB.crash` + :meth:`MiniDB.open`
reproduce genuine crash-recovery (redo from the last checkpoint
pointer).  That realism is what lets the test suite prove Ginja's
end-to-end RPO guarantees.
"""

from repro.db.engine import EngineConfig, MiniDB, Transaction
from repro.db.profiles import DBMSProfile, MYSQL_PROFILE, POSTGRES_PROFILE, WriteKind
from repro.db.records import CommitRecord, OpRecord

__all__ = [
    "MiniDB",
    "Transaction",
    "EngineConfig",
    "DBMSProfile",
    "POSTGRES_PROFILE",
    "MYSQL_PROFILE",
    "WriteKind",
    "OpRecord",
    "CommitRecord",
]
