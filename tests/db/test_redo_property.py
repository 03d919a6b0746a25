"""Property: redo rebuilds the committed state row for row and page for page.

A committed history — rewrites that grow a row off its page, deletes,
aborted transactions, a checkpoint somewhere in it — runs on a live
primary, and its last transaction's frames are torn.  After a crash,
``MiniDB.open`` must hold exactly the committed rows, and every table's
index (row → page number) must equal the live primary's, on both
profiles.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.units import KiB
from repro.db.engine import EngineConfig, MiniDB
from repro.db.profiles import MYSQL_PROFILE, POSTGRES_PROFILE
from repro.db.wal import WALLayout
from repro.storage.memory import MemoryFileSystem

SEG = 64 * KiB
PROFILES = {"postgres": POSTGRES_PROFILE, "mysql": MYSQL_PROFILE}
TABLES = ("stock", "orders")
#: A few KB rewrites push a row off an 8 KiB (or 16 KiB) page.
SIZES = (8, 300, 1800, 3600)

ops = st.tuples(
    st.sampled_from(["put", "put", "delete"]),
    st.sampled_from(TABLES),
    st.integers(0, 9),
    st.sampled_from(SIZES),
)
txns = st.tuples(st.lists(ops, min_size=1, max_size=5),
                 st.sampled_from([False, False, False, True]))  # aborted?


def run_history(profile_name, history, checkpoint_at, tear):
    """Run ``history`` on a live primary, tear its last transaction's
    frames and crash it; returns the reopened database, the committed
    rows and the live indexes as they were before the torn transaction."""
    profile = PROFILES[profile_name]
    fs = MemoryFileSystem()
    config = EngineConfig(wal_segment_size=SEG, auto_checkpoint=False)
    db = MiniDB.create(fs, profile, config)
    reference: dict[tuple[str, str], bytes] = {}
    last_committed = 0
    for number, (txn_ops, aborted) in enumerate(history):
        if number == checkpoint_at:
            db.checkpoint()
        writes = {}
        with db.begin() as txn:
            for n, (verb, table, key, size) in enumerate(txn_ops):
                key = f"k{key}"
                if verb == "put":
                    value = bytes([1 + (number * 7 + n) % 255]) * size
                    txn.put(table, key, value)
                else:
                    value = None
                    txn.delete(table, key)
                writes[(table, key)] = value
            if aborted:
                txn.abort()
        if not aborted:
            last_committed = txn.txid
            for row, value in writes.items():
                if value is None:
                    reference.pop(row, None)
                else:
                    reference[row] = value
    live_index = indexes(db)
    # The torn transaction: its commit frame (at least) never validates.
    start = db.lsn
    with db.begin() as txn:
        for key in range(3):
            txn.put(TABLES[0], f"k{key}", b"\xee" * 500)
    path, offset = WALLayout(profile, SEG).locate(start + tear % (db.lsn - start))
    fs.write(path, offset, bytes([fs.read(path, offset, 1)[0] ^ 0xFF]))
    db.crash()
    recovered = MiniDB.open(fs, profile, config)
    assert recovered.begin().txid > last_committed  # no committed txid reused
    return recovered, reference, live_index


def indexes(db) -> dict[str, dict[str, int]]:
    """Each table's row → page number map (tables with no row left out:
    the torn transaction's table file may outlive its rows)."""
    found = {name: dict(db._store.table(name).index) for name in db.tables()}
    return {name: index for name, index in found.items() if index}


def rows_of(db) -> dict[tuple[str, str], bytes]:
    return {
        (name, key): db.get(name, key)
        for name in db.tables()
        for key in list(db._store.table(name).keys())
    }


@settings(max_examples=60, deadline=None)
@given(
    profile_name=st.sampled_from(sorted(PROFILES)),
    history=st.lists(txns, max_size=25),
    checkpoint_at=st.integers(0, 30),
    tear=st.integers(0, 2**16),
)
def test_redo_rebuilds_the_committed_rows_and_pages(
    profile_name, history, checkpoint_at, tear
):
    recovered, reference, live_index = run_history(
        profile_name, history, checkpoint_at, tear
    )
    assert rows_of(recovered) == reference
    assert indexes(recovered) == live_index

