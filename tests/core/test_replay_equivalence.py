"""Replay equivalence: the planner loses no bytes, for either caller.

Property under test: pushing a write stream through the shared planner
(:class:`~repro.core.shadow.Shadow`: coalesce in write order, cut each
write that overlaps no other against the last-shipped image, join,
:func:`~repro.core.shadow.split_runs`) — as the WAL side does it, via
:func:`~repro.core.commit_pipeline.plan_writes`, the very function
``CommitPipeline._plan`` calls (known-zero tails included), and as the
checkpoint collector does it, with a dump generation for its epoch —
plus a codec round-trip, then replaying the resulting objects in order
produces the files naively applying every write in write order does.
The stream goes through as one batch, or cut into batches that share
one shadow (and, on the WAL side, its high-water marks) the way a
running pipeline's batches and a collector's checkpoints do.

Nothing is assumed about the order of the writes: appends, same-offset
rewrites (longer, *shorter* — which replaces only the head of what was
there — or identical) and patches anywhere, across run boundaries and
at a run's start, overlapping in any order.  Write order is replay
order.  The contained-write case is the oldest regression here: a merge
once truncated the enclosing run at the patch's end, dropping its
suffix from the WAL object; an offset-sorted merge once replayed a
rewrite of an earlier place before a later write that overlapped it.

A second family of streams is page-granular and zero-heavy — the shape
known-zero-tail elision works on: zero-padded pages, zeros written over
older non-zero bytes, laps wider than the shadow.  Those are replayed
into a growing file, so the image's *length* is compared too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.checkpointer import _run_framing
from repro.core.codec import ObjectCodec
from repro.core.commit_pipeline import UNBOUNDED, plan_writes
from repro.core.data_model import (
    decode_checkpoint_payload, decode_wal_payload, encode_checkpoint_payload,
    encode_wal_payload,
)
from repro.core.shadow import Shadow, split_runs

from tests.core.test_changed_range_shipping import wal_planner

CODEC = ObjectCodec()
SPLIT_CAP = 97  # prime and tiny, so groups straddle run boundaries often


def naive_replay(writes: list[tuple[int, bytes]], size: int) -> bytes:
    image = bytearray(size)
    for offset, data in writes:
        image[offset:offset + len(data)] = data
    return bytes(image)


def planned_objects(writes, cuts=(), epochs=None):
    """The (offset, data) groups ``plan_writes`` ships for the stream,
    one batch per slice between ``cuts``, all sharing one shadow."""
    shadow, marks = wal_planner()
    epochs = epochs or [0] * len(writes)
    edges = [0, *cuts, len(writes)]
    groups = []
    for start, stop in zip(edges, edges[1:]):
        batch = [
            ("seg", offset, data, epochs[index])
            for index, (offset, data) in enumerate(writes[start:stop], start)
        ]
        groups += [group for _path, group in plan_writes(
            batch, shadow, marks, coalesce=True, max_object_bytes=SPLIT_CAP,
        )]
    return groups


def pipeline_replay(writes: list[tuple[int, bytes]], size: int,
                    cuts=(), epochs=None) -> bytes:
    """The aggregator's transform as shipped, plus recovery's apply loop."""
    image = bytearray(size)
    for group in planned_objects(writes, cuts, epochs):
        payload = CODEC.decode(CODEC.encode(encode_wal_payload(group)))
        for offset, data in decode_wal_payload(payload):
            image[offset:offset + len(data)] = data
    return bytes(image)


def stream_size(writes: list[tuple[int, bytes]]) -> int:
    return max(offset + len(data) for offset, data in writes)


def assert_equivalent(writes: list[tuple[int, bytes]], cuts=(),
                      epochs=None) -> None:
    size = stream_size(writes)
    assert (pipeline_replay(writes, size, cuts, epochs)
            == naive_replay(writes, size))


def random_batching(seed: int, count: int) -> tuple[list[int], list[int]]:
    """Seeded batch boundaries and a non-decreasing epoch per write (a
    checkpoint begins before roughly one write in twelve)."""
    rng = random.Random(~seed)
    cuts = sorted(rng.sample(range(1, count), rng.randint(1, count // 2)))
    epochs, epoch = [], 0
    for _ in range(count):
        epoch += rng.random() < 0.08
        epochs.append(epoch)
    return cuts, epochs


def generate_stream(seed: int) -> list[tuple[int, bytes]]:
    rng = random.Random(seed)

    def body(length: int) -> bytes:
        return bytes(rng.randrange(256) for _ in range(length))

    writes: list[tuple[int, bytes]] = []
    tail_start, tail_len = 0, rng.randint(1, 40)
    writes.append((tail_start, body(tail_len)))
    for _ in range(rng.randint(20, 60)):
        roll = rng.random()
        if roll < 0.08 and tail_len > 1:
            # Rewrite only the head of the tail run: the run keeps its
            # length, and the bytes past the rewrite keep their content.
            writes.append((tail_start, body(rng.randint(1, tail_len - 1))))
        elif roll < 0.25 and writes[-1][0] == tail_start \
                and len(writes[-1][1]) == tail_len > 2:
            # Rewrite the tail run at its own length with only a middle
            # stretch changed — a fixed-size page gaining a record.
            page = writes[-1][1]
            start = rng.randint(1, tail_len - 1)
            fresh = body(rng.randint(1, tail_len - start))
            writes.append(
                (tail_start, page[:start] + fresh + page[start + len(fresh):])
            )
        elif roll < 0.45:
            # Rewrite the tail run in place, longer than before.
            tail_len += rng.randint(1, 40)
            writes.append((tail_start, body(tail_len)))
        elif roll < 0.80:
            # Close the tail; append the next run right after it.
            tail_start += tail_len
            tail_len = rng.randint(1, 40)
            writes.append((tail_start, body(tail_len)))
        elif roll < 0.88:
            # Write an earlier write again, as it was.
            writes.append(writes[rng.randrange(len(writes))])
        else:
            # Patch anywhere in what was written: inside a run, at its
            # start, across run boundaries, past the tail.
            start = rng.randrange(tail_start + tail_len)
            writes.append((start, body(rng.randint(1, 40))))
    return writes


class TestDeterministicShapes:
    def test_contained_write_keeps_the_run_suffix(self):
        """The regression shape: a short patch inside a long run."""
        assert_equivalent([(0, bytes(range(100))), (10, b"\xff" * 5)])

    def test_overlapping_runs(self):
        assert_equivalent([(0, b"a" * 30), (20, b"b" * 30)])

    def test_adjacent_runs(self):
        assert_equivalent([(0, b"a" * 10), (10, b"b" * 10), (20, b"c" * 10)])

    def test_growing_tail_rewrites_coalesce(self):
        writes = [(0, b"x" * n) for n in (8, 24, 64, 120)]
        assert_equivalent(writes)
        runs = [run for group in planned_objects(writes) for run in group]
        assert b"".join(data for _offset, data in runs) == b"x" * 120
        assert [offset for offset, _data in runs] == [0, SPLIT_CAP]

    def test_cap_straddling_run_splits_losslessly(self):
        run = bytes(i % 251 for i in range(3 * SPLIT_CAP + 11))
        assert_equivalent([(0, run), (SPLIT_CAP, b"\x00" * 7)])

    def test_patch_extending_past_the_tail(self):
        assert_equivalent([(0, b"a" * 50), (40, b"b" * 30)])

    def test_shrinking_rewrite_keeps_the_tail_it_did_not_cover(self):
        """The bug: latest-per-offset kept only the shorter write, and
        the longer one's tail came back as zeros."""
        writes = [(0, b"A" * 16), (0, b"B" * 8)]
        assert_equivalent(writes)            # coalesced in one batch
        assert_equivalent(writes, cuts=[1])  # one batch each

    def test_a_tail_rewrite_in_a_later_batch_ships_only_what_changed(self):
        page = b"r1r1r1" + bytes(26)
        fuller = b"r1r1r1" + b"r2r2" + bytes(22)
        writes = [(64, page), (64, fuller)]
        assert_equivalent(writes, cuts=[1])
        first, second = planned_objects(writes, cuts=[1])
        assert first == [(64, b"r1r1r1"), (95, b"\0")]   # records, length pin
        assert second == [(70, b"r2r2")]

    def test_an_identical_rewrite_plans_nothing(self):
        writes = [(0, b"same" * 8), (0, b"same" * 8)]
        assert_equivalent(writes, cuts=[1])
        assert len(planned_objects(writes, cuts=[1])) == 1

    def test_a_rewrite_in_a_new_epoch_ships_whole(self):
        page, fuller = b"ab" + bytes(6), b"abcd" + bytes(4)
        writes = [(0, page), (0, fuller)]
        assert planned_objects(writes, cuts=[1], epochs=[0, 1]) == [
            [(0, page)], [(0, fuller)],
        ]

    def test_a_rewrite_of_another_length_ships_whole(self):
        writes = [(0, b"abcd"), (0, b"abcdef")]
        assert planned_objects(writes, cuts=[1]) == [
            [(0, b"abcd")], [(0, b"abcdef")],
        ]

    @pytest.mark.parametrize("patch", [(12, b"bbbb"), (23, b"bb"), (7, b"bb")])
    def test_a_patch_from_another_batch_invalidates_the_page_it_hit(self, patch):
        """The shadow must mirror the image: once a patch has landed on
        the page — inside it, or on its last or first byte — the image
        there is no longer the page last planned, so writing that page
        again is *not* an identical rewrite."""
        page = b"a" * 16
        writes = [(8, page), patch, (8, page)]
        assert_equivalent(writes, cuts=[1, 2])
        assert planned_objects(writes, cuts=[1, 2])[-1] == [(8, page)]

    @pytest.mark.parametrize("neighbour", [(24, b"bb"), (6, b"bb")])
    def test_a_write_that_only_touches_the_page_leaves_it_remembered(
            self, neighbour):
        page = b"a" * 16
        writes = [(8, page), neighbour, (8, page)]
        assert_equivalent(writes, cuts=[1, 2])
        assert len(planned_objects(writes, cuts=[1, 2])) == 2

    @pytest.mark.parametrize("cuts", [[], [1], [2]])
    def test_a_rewrite_replays_after_the_write_it_overlaps(self, cuts):
        """Offset order put ``C×100@0`` before ``B×50@50``, and B won
        bytes C had overwritten; over 97-byte objects the batch also
        straddles an object boundary."""
        writes = [(0, b"A" * 100), (50, b"B" * 50), (0, b"C" * 100)]
        assert_equivalent(writes, cuts)
        assert pipeline_replay(writes, 100, cuts) == b"C" * 100

    def test_overlapping_writes_of_one_batch_are_never_trimmed(self):
        """A trimmed page would sort *after* the patch it used to sort
        before, and win bytes the later patch wrote."""
        old, new = b"a" * 16, b"a" * 12 + b"cccc"
        writes = [(0, old), (0, new), (8, b"bbbbbbbb")]
        assert_equivalent(writes, cuts=[1])
        # ... and the page it overlapped is forgotten, not remembered
        # with content the image does not hold.
        assert_equivalent(writes + [(0, new)], cuts=[1, 3])


class TestSeededStreams:
    @pytest.mark.parametrize("seed", range(20))
    def test_pipeline_image_matches_naive_replay(self, seed):
        writes = generate_stream(seed)
        assert len(writes) >= 10
        assert_equivalent(writes)

    @pytest.mark.parametrize("seed", range(20))
    def test_batched_image_matches_naive_replay(self, seed):
        """The same streams as a running pipeline sees them: in batches
        that share a shadow, within one epoch (every same-length rewrite
        is a diff) and across seeded checkpoint begins."""
        writes = generate_stream(seed)
        cuts, epochs = random_batching(seed, len(writes))
        assert_equivalent(writes, cuts)
        assert_equivalent(writes, cuts, epochs)

    def test_the_streams_exercise_trimming_and_shrinking(self):
        shrinking = trimmed = 0
        for seed in range(20):
            writes = generate_stream(seed)
            extent: dict[int, int] = {}
            for offset, data in writes:
                shrinking += len(data) < extent.get(offset, 0)
                extent[offset] = max(extent.get(offset, 0), len(data))
            cuts, _epochs = random_batching(seed, len(writes))

            def shipped(epochs):
                return sum(
                    len(data)
                    for group in planned_objects(writes, cuts, epochs)
                    for _offset, data in group
                )

            # An epoch per write: no shadow entry ever matches.
            trimmed += shipped(None) < shipped(list(range(len(writes))))
        assert shrinking >= 10 and trimmed >= 10

    @pytest.mark.parametrize("seed", range(20))
    def test_every_byte_written_once_survives(self, seed):
        """Bytes in closed runs never regress to zero (the truncation
        bug's signature: a dropped suffix reads back as zeros)."""
        writes = generate_stream(seed)
        size = stream_size(writes)
        image = pipeline_replay(writes, size)
        covered = bytearray(size)
        for offset, data in writes:
            for position in range(offset, offset + len(data)):
                covered[position] = 1
        naive = naive_replay(writes, size)
        for position in range(size):
            if covered[position]:
                assert image[position] == naive[position]


# -- page-granular, zero-heavy streams: bytes *and* length ----------------------

PAGE = 32
#: Nine pages: narrower than the sixteen-page ring below, so a lap
#: misses the shadow.
NARROW = 9 * PAGE


def apply_write(image: bytearray, offset: int, data: bytes) -> None:
    """What ``fs.write`` does on recovery: zero-fill the hole, then write."""
    end = offset + len(data)
    if len(image) < end:
        image.extend(bytes(end - len(image)))
    image[offset:end] = data


def planned_batches(writes, cuts, epochs, shadow, marks):
    """``(path, offset, data)`` writes through ``plan_writes``, one
    batch per slice between ``cuts``, all sharing ``shadow`` and
    ``marks``."""
    edges = [0, *cuts, len(writes)]
    for start, stop in zip(edges, edges[1:]):
        batch = [(*write, epochs[index])
                 for index, write in enumerate(writes[start:stop], start)]
        yield from plan_writes(batch, shadow, marks, coalesce=True,
                               max_object_bytes=SPLIT_CAP)


def files_by_plan(writes, cuts, epochs, seeded=None, marks=None,
                  bound=NARROW) -> dict:
    """The planned chunks replayed over the ``seeded`` files, by a
    pipeline told ``marks``."""
    shadow, planner_marks = wal_planner(bound)
    planner_marks.update(marks or {})
    files = {path: bytearray(held) for path, held in (seeded or {}).items()}
    for path, group in planned_batches(writes, cuts, epochs, shadow,
                                       planner_marks):
        payload = CODEC.decode(CODEC.encode(encode_wal_payload(group)))
        for offset, data in decode_wal_payload(payload):
            apply_write(files.setdefault(path, bytearray()), offset, data)
    return files


def files_by_whole_writes(writes, seeded=None) -> dict:
    files = {path: bytearray(held) for path, held in (seeded or {}).items()}
    for path, offset, data in writes:
        apply_write(files.setdefault(path, bytearray()), offset, data)
    return files


def padded_page(record: bytes) -> bytes:
    return record + bytes(PAGE - len(record))


def generate_page_stream(seed: int) -> list[tuple[str, int, bytes]]:
    """A ring of sixteen pages — more than a narrow shadow holds — filled
    the way a DBMS fills one: the tail page rewritten whole as records
    land (zero-padded), now and then an identical rewrite or a record
    ending in zeros, and lap after lap over what earlier laps left."""
    rng = random.Random(seed)
    writes = []
    place, fill, page = 0, 0, bytearray(PAGE)
    for _ in range(rng.randint(60, 120)):
        roll = rng.random()
        if roll < 0.1 and writes:
            writes.append(writes[-1])
            continue
        if fill == PAGE or roll < 0.3:
            place, fill, page = (place + 1) % 16, 0, bytearray(PAGE)
        length = rng.randint(1, min(12, PAGE - fill))
        page[fill:fill + length] = bytes(
            rng.choice((0, 0, rng.randrange(1, 256))) for _ in range(length)
        )
        fill += length
        writes.append(("seg", place * PAGE, bytes(page)))
    return writes


def one_batch(*writes):
    return plan_writes([(*write, 0) for write in writes], *wal_planner(),
                       coalesce=True, max_object_bytes=SPLIT_CAP)


class TestKnownZeroShapes:
    def test_a_zero_padded_page_ships_its_records_and_a_pin(self):
        writes = [("seg", 64, padded_page(b"rec"))]
        assert one_batch(*writes) == [
            ("seg", [(64, b"rec"), (64 + PAGE - 1, b"\0")]),
        ]
        assert files_by_plan(writes, [], [0]) == files_by_whole_writes(writes)

    def test_a_tail_no_longer_than_a_pin_ships_as_it_is(self):
        page = b"r" * (PAGE - 13) + bytes(13)
        assert one_batch(("seg", 0, page)) == [("seg", [(0, page)])]

    def test_zeros_over_older_non_zero_bytes_are_shipped(self):
        """A new epoch, so the rewrite misses the shadow and ships
        whole: its zeros are what clears the older page."""
        writes = [("seg", 0, b"a" * PAGE), ("seg", 0, padded_page(b"bbb"))]
        got = files_by_plan(writes, [1], [0, 1])
        assert got == files_by_whole_writes(writes)
        assert got["seg"] == padded_page(b"bbb")

    def test_a_lap_wider_than_the_shadow(self):
        writes = [("seg", n * PAGE, bytes([n + 1]) * PAGE) for n in range(16)]
        writes += [("seg", n * PAGE, padded_page(b"lap")) for n in range(16)]
        cuts = list(range(1, len(writes)))
        assert (files_by_plan(writes, cuts, [0] * len(writes))
                == files_by_whole_writes(writes))

    def test_an_unbounded_mark_ships_whole_and_a_new_file_is_cut(self):
        shadow, marks = wal_planner()
        marks["old"] = UNBOUNDED
        planned = plan_writes(
            [("old", 0, padded_page(b"rec"), 0), ("new", 0, padded_page(b"rec"), 0)],
            shadow, marks, coalesce=True, max_object_bytes=SPLIT_CAP,
        )
        assert planned == [
            ("new", [(0, b"rec"), (PAGE - 1, b"\0")]),
            ("old", [(0, padded_page(b"rec"))]),
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_page_streams_replay_to_the_same_files(self, seed):
        writes = generate_page_stream(seed)
        cuts, epochs = random_batching(seed, len(writes))
        want = files_by_whole_writes(writes)
        assert files_by_plan(writes, cuts, epochs) == want
        assert files_by_plan(writes, cuts, [0] * len(writes)) == want
        assert files_by_plan(writes, [], epochs) == want

    def test_the_page_streams_lap_and_pad(self):
        cut = whole_over_older = 0
        for seed in range(20):
            writes = generate_page_stream(seed)
            cuts, epochs = random_batching(seed, len(writes))
            shadow, marks = wal_planner(NARROW)
            high = 0
            for _path, group in planned_batches(writes, cuts, epochs, shadow,
                                                marks):
                for offset, data in group:
                    padded = len(data) > 13 and not any(data[-13:])
                    cut += len(data) == 1 and data == b"\0"
                    whole_over_older += padded and offset + len(data) <= high
                high = max(high, marks["seg"])
        assert cut >= 100 and whole_over_older >= 20


zero_heavy = st.builds(
    lambda solid, size: solid[:size] + bytes(size - len(solid[:size])),
    st.binary(max_size=PAGE), st.sampled_from((PAGE // 2, PAGE)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    writes=st.lists(
        st.tuples(st.sampled_from(("a", "b")),
                  st.integers(0, 11).map(lambda place: place * PAGE),
                  zero_heavy),
        min_size=1, max_size=40,
    ),
    seeded=st.dictionaries(
        st.sampled_from(("a", "b")),
        st.tuples(st.lists(zero_heavy, max_size=4).map(b"".join),
                  st.one_of(st.integers(0, 3 * PAGE), st.just(UNBOUNDED))),
    ),
    data=st.data(),
)
def test_any_zero_heavy_stream_replays_to_the_same_bytes_and_length(
        writes, seeded, data):
    """Any page-aligned zero-heavy stream, any batch cut, any epochs and
    any seed marks at or above what the seeded image holds: the planned
    chunks replayed over that image equal the writes replayed whole."""
    cuts = sorted(data.draw(st.sets(st.integers(1, len(writes) - 1)))
                  if len(writes) > 1 else ())
    steps = data.draw(st.lists(st.booleans(), min_size=len(writes),
                               max_size=len(writes)))
    epochs = [sum(steps[:index + 1]) for index in range(len(steps))]
    images = {path: held for path, (held, _slack) in seeded.items()}
    marks = {path: len(held.rstrip(b"\0")) + slack
             for path, (held, slack) in seeded.items()}
    assert (files_by_plan(writes, cuts, epochs, images, marks)
            == files_by_whole_writes(writes, images))


# -- one property, both callers ------------------------------------------------------

HALF = PAGE // 2


def replay_as_collector(stream, cuts, dumps, seeded, bound, *,
                        booted: bool = False) -> None:
    """``stream`` is ``(path, offset, data, stray)`` writes over the
    ``seeded`` files (a boot dump's); a checkpoint ends after each index
    in ``cuts`` (and at the end), as a dump where the index is in
    ``dumps``.  A stray write lands outside any checkpoint: local only,
    until a dump reads the local files.  The collector of a ``booted``
    process has the boot dump's image from the start, any other one
    from its first dump on.  After every checkpoint the collector's run
    objects, replayed in order, must have rebuilt the files its whole
    writes rebuild."""
    cuts = sorted({cut for cut in cuts if cut < len(stream)} | {len(stream)})
    shadow = Shadow(bound, _run_framing, lambda _path: True)
    if booted:
        shadow.seed(seeded.items())
    local = files_by_whole_writes([], seeded)
    ours, whole = files_by_whole_writes([], seeded), files_by_whole_writes([], seeded)
    planned = written = 0
    for start, stop in zip([0, *cuts], cuts):
        writes = []
        for path, offset, data, stray in stream[start:stop]:
            apply_write(local.setdefault(path, bytearray()), offset, data)
            if not stray:
                writes.append((path, offset, data))
        if stop in dumps:
            shadow.seed(local.items())
            ours = {path: bytearray(held) for path, held in local.items()}
            whole = {path: bytearray(held) for path, held in local.items()}
            continue
        runs, learned = shadow.plan([(*write, 0) for write in writes])
        shadow.learn(learned)
        assert shadow.nbytes <= bound
        for group in split_runs(runs, SPLIT_CAP):
            payload = CODEC.decode(CODEC.encode(encode_checkpoint_payload(group)))
            for path, offset, run in decode_checkpoint_payload(payload):
                apply_write(ours.setdefault(path, bytearray()), offset, run)
        for path, offset, data in writes:
            apply_write(whole.setdefault(path, bytearray()), offset, data)
        planned += sum(len(run) for _path, _offset, run in runs)
        written += sum(len(data) for _path, _offset, data in writes)
        assert ours == whole
    assert planned <= written


def replay_as_wal(stream, cuts, dumps, seeded, marks, bound) -> None:
    """The same stream as WAL writes: every write ships, in batches cut
    at ``cuts``, each stamped with the epoch a checkpoint begin at every
    index in ``dumps`` opened — over the ``seeded`` files, with marks at
    or above what they hold."""
    writes = [write[:3] for write in stream]
    epochs = [sum(dump <= index for dump in dumps) for index in range(len(writes))]
    cuts = sorted(cut for cut in cuts if cut < len(writes))
    assert (files_by_plan(writes, cuts, epochs, seeded, marks, bound)
            == files_by_whole_writes(writes, seeded))


# Few variants of few sizes at few places, some half a page apart, some
# not aligned at all: the same bytes come back, neighbours overlap in
# every way, a place shrinks and grows, zeros land over older bytes.
changing_page = st.builds(
    lambda head, fill, rows, size:
        head + fill * (size - len(head) - len(rows)) + rows,
    st.sampled_from((b"", b"h", b"H")), st.sampled_from((b".", b"\0")),
    st.sampled_from((b"", b"r", b"rows")), st.sampled_from((0, 5, HALF, PAGE)),
)

X, Y = b"h" + b"." * (PAGE - 1), b"H" + b"." * (PAGE - 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    stream=st.lists(
        st.tuples(st.sampled_from(("a", "b")),
                  st.sampled_from((0, 3, HALF, HALF + 5, PAGE, 2 * PAGE)),
                  changing_page,
                  st.sampled_from((False, False, False, True))),
        min_size=1, max_size=30,
    ),
    cuts=st.sets(st.integers(1, 29)),
    dumps=st.sets(st.integers(1, 30)),
    seeded=st.dictionaries(
        st.sampled_from(("a", "b")),
        st.tuples(st.lists(changing_page, max_size=4).map(b"".join),
                  st.one_of(st.integers(0, 3 * PAGE), st.just(UNBOUNDED))),
    ),
    bound=st.sampled_from((2 * PAGE, 1 << 20)),
)
# A stray write, a dump that reads it, then the page as the shadow knew it.
@example(stream=[("a", 0, X, False), ("a", 0, Y, True), ("a", 0, X, False)],
         cuts={1, 2}, dumps={2}, seeded={}, bound=1 << 20)
# A longer rewrite whose zeros must clear what a wider write left there.
@example(stream=[("a", 0, X, False), ("a", 0, X[:HALF], False),
                 ("a", 0, X[:HALF] + bytes(HALF), False)],
         cuts={1, 2}, dumps=set(), seeded={}, bound=1 << 20)
# A wide write over two places, the right one then put back as it was.
@example(stream=[("a", 0, X[:HALF], False), ("a", HALF, Y[:HALF], False),
                 ("a", 0, Y, False), ("a", HALF, Y[:HALF], False)],
         cuts={2}, dumps=set(), seeded={}, bound=1 << 20)
# A rewrite of an earlier place after a later write overlapping it.
@example(stream=[("a", 0, X, False), ("a", HALF, Y[:HALF], False),
                 ("a", 0, Y, False)],
         cuts=set(), dumps=set(), seeded={}, bound=1 << 20)
def test_any_page_stream_replays_to_the_same_files_across_cuts_and_dumps(
        stream, cuts, dumps, seeded, bound):
    """Any stream, any batch cut, any epochs, any seed marks at or above
    what the seeded image holds, a wide or a tiny shadow: through the
    planner as the WAL side ships it and as the collector ships it,
    replay rebuilds the files whole writes rebuild, bytes and length."""
    images = {path: held for path, (held, _slack) in seeded.items()}
    marks = {path: len(held.rstrip(b"\0")) + slack
             for path, (held, slack) in seeded.items()}
    replay_as_wal(stream, cuts, dumps, images, marks, bound)
    replay_as_collector(stream, cuts, dumps, images, bound)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    stream=st.lists(
        st.tuples(st.sampled_from(("a", "b")),
                  st.sampled_from((0, 3, HALF, HALF + 5, PAGE, 2 * PAGE, 5 * PAGE)),
                  changing_page,
                  st.sampled_from((False, False, False, True))),
        min_size=1, max_size=30,
    ),
    cuts=st.sets(st.integers(1, 29)),
    dumps=st.sets(st.integers(1, 30)),
    seeded=st.dictionaries(st.sampled_from(("a", "b")),
                           st.lists(changing_page, max_size=4).map(b"".join)),
    bound=st.sampled_from((3 * PAGE, 1 << 20)),
)
# Appended past the image's end: records, then a pinned zero tail.
@example(stream=[("a", 5 * PAGE, b"h" + bytes(PAGE - 1), False)],
         cuts=set(), dumps=set(), seeded={"a": X}, bound=1 << 20)
# An empty write past the end still gives the file its length.
@example(stream=[("a", 5 * PAGE, b"", False)],
         cuts=set(), dumps=set(), seeded={"a": X}, bound=1 << 20)
# A stray write, a dump that reads it, then the page as the image knew it.
@example(stream=[("a", 0, X, False), ("a", 0, Y, True), ("a", 0, X, False)],
         cuts={1, 2}, dumps={2}, seeded={}, bound=1 << 20)
# Overlapping writes land on the image whole, in write order.
@example(stream=[("a", 0, Y, False), ("a", HALF, X[:HALF], False),
                 ("a", 0, X, False)],
         cuts={2}, dumps=set(), seeded={"a": X}, bound=1 << 20)
def test_any_page_stream_replays_to_the_same_files_through_the_dump_image(
        stream, cuts, dumps, seeded, bound):
    """The collector of a process that booted the bucket: every write
    that overlaps no other is cut against its file's image — the boot
    dump, or the last dump, plus every run since — zeros past its end,
    a pin for the length.  Any stream, cut, dump points and bound (a
    dump larger than it keeps no image), and replay rebuilds the files
    whole writes rebuild, bytes and length."""
    replay_as_collector(stream, cuts, dumps, seeded, bound, booted=True)
