"""The recovery plan read from the bucket index equals the planner that
parsed the LIST itself.

``plan_recovery`` used to carry its own parse, group-completeness rule,
WAL frontier and stale set.  It now reads all of them from
:class:`~repro.core.data_model.BucketIndex`, and what is stale is the
fsck audit's call.  :func:`reference_plan` below is that earlier
planner, kept verbatim in substance, and the property checks, over
generated bucket layouts (dumps and checkpoints missing parts, WAL gaps,
WAL below the checkpoint frontier) and every restore point, that:

* both plans restore the same objects in the same order, from the same
  dump, to the same frontier — and raise on the same layouts;
* the earlier planner's stale set is exactly what the cleanup after a
  recovery deletes with no retention policy.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.errors import RecoveryError
from repro.cloud.interface import ObjectInfo
from repro.core.data_model import (
    CHECKPOINT,
    BucketIndex,
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    parse_any,
)
from repro.core.recovery import plan_recovery
from repro.fsck import audit_index


def reference_plan(infos, *, upto_ts=None):
    """The planner that parsed the LIST itself: returns
    ``(step_keys, dump_ts, frontier_ts, stale_keys)``."""
    wal_metas: dict[int, WALObjectMeta] = {}
    db_groups: dict[tuple[int, int, str], list[DBObjectMeta]] = {}
    for info in infos:
        meta = parse_any(info.key)
        if meta is None:
            continue
        if isinstance(meta, WALObjectMeta):
            wal_metas[meta.ts] = meta
        else:
            db_groups.setdefault(meta.group, []).append(meta)

    stale: list[str] = []
    complete: dict[tuple[int, int, str], list[DBObjectMeta]] = {}
    for group_key, metas in db_groups.items():
        metas.sort(key=lambda m: m.part)
        if len(metas) == metas[0].nparts and [m.part for m in metas] == list(
            range(metas[0].nparts)
        ):
            complete[group_key] = metas
        else:
            stale.extend(m.key for m in metas)

    dumps = sorted(
        ((ts, seq) for (ts, seq, type_) in complete if type_ == DUMP),
        reverse=True,
    )
    if not dumps:
        raise RecoveryError("no complete dump found in the cloud")

    latest_dump = dumps[0]
    latest_frontier = max(
        (ts for (ts, seq, type_) in complete
         if type_ == CHECKPOINT and (ts, seq) > latest_dump),
        default=latest_dump[0],
    )
    live_end = latest_frontier + 1
    while live_end in wal_metas:
        live_end += 1
    stale.extend(
        wal_metas[ts].key
        for ts in sorted(wal_metas)
        if ts >= live_end or ts <= latest_frontier
    )

    target_dumps = dumps
    if upto_ts is not None:
        target_dumps = [(ts, seq) for ts, seq in dumps if ts <= upto_ts]
        if not target_dumps:
            raise RecoveryError(
                f"no complete dump at or before ts={upto_ts} in the cloud"
            )
    dump_order = target_dumps[0]
    dump_ts = dump_order[0]
    steps = [meta.key for meta in complete[(dump_order[0], dump_order[1], DUMP)]]
    ckpt_orders = sorted(
        (ts, seq)
        for (ts, seq, type_) in complete
        if type_ == CHECKPOINT and (ts, seq) > dump_order
    )
    if upto_ts is not None:
        ckpt_orders = [(ts, seq) for ts, seq in ckpt_orders if ts <= upto_ts]
    frontier = dump_ts
    for ts, seq in ckpt_orders:
        steps.extend(meta.key for meta in complete[(ts, seq, CHECKPOINT)])
        frontier = ts
    if upto_ts is None:
        steps.extend(wal_metas[ts].key for ts in range(frontier + 1, live_end))
    return steps, dump_ts, frontier, stale


# A DB group: (nparts, which parts survived the disaster).
_group = st.integers(min_value=1, max_value=3).flatmap(
    lambda nparts: st.tuples(
        st.just(nparts),
        st.one_of(
            st.just(frozenset(range(nparts))),
            st.frozensets(st.integers(0, nparts - 1), min_size=1),
        ),
    )
)

layouts = st.tuples(
    st.dictionaries(
        st.tuples(
            st.integers(0, 10), st.integers(0, 3),
            st.sampled_from([DUMP, CHECKPOINT]),
        ),
        _group,
        max_size=5,
    ),
    st.frozensets(st.integers(0, 14), max_size=12),
)


def bucket_keys(layout) -> list[str]:
    groups, wal_ts = layout
    keys = [
        DBObjectMeta(ts=ts, type=type_, size=7, part=part, nparts=nparts,
                     seq=seq).key
        for (ts, seq, type_), (nparts, parts) in groups.items()
        for part in sorted(parts)
    ]
    keys.extend(
        WALObjectMeta(ts=ts, filename="pg_xlog/seg", offset=ts * 8).key
        for ts in wal_ts
    )
    keys.append("heartbeat")  # foreign keys are ignored by both
    return sorted(keys)


def _outcome(plan, infos, upto_ts):
    try:
        return plan(infos, upto_ts=upto_ts)
    except RecoveryError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(layouts)
def test_index_plan_equals_the_self_parsing_planner(layout):
    keys = bucket_keys(layout)
    infos = [ObjectInfo(key=key, size=7) for key in keys]
    doomed = set(audit_index(BucketIndex.from_keys(keys)).doomed)
    db_ts = sorted({ts for (ts, _seq, _type) in layout[0]})
    for upto_ts in [None, *db_ts]:
        expected = _outcome(reference_plan, infos, upto_ts)
        got = _outcome(plan_recovery, infos, upto_ts)
        if expected is RecoveryError:
            assert got is RecoveryError
            continue
        steps, dump_ts, frontier_ts, stale = expected
        assert [step.meta.key for step in got.steps] == steps
        assert got.dump_ts == dump_ts
        assert got.frontier_ts == frontier_ts
        assert set(stale) == doomed
