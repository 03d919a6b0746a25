"""The last-shipped image, and the one planner that cuts writes against it.

Both upload paths ship writes the DBMS made — WAL batches
(:mod:`~repro.core.commit_pipeline`, Alg. 2) and checkpoint objects
(:mod:`~repro.core.checkpointer`, Alg. 3) — and both ship a rewrite of
a place as the byte runs by which it differs from what they last
shipped there.  How a write is cut against what the bucket already
holds is decided here, once, for both; the shared code never asks which
caller it serves.  :meth:`Shadow.plan` takes writes in write order:

* **coalesce** — writes stay in write order, which is the order
  recovery replays them in; a write is dropped only when a later write
  at the same ``(path, offset)`` covers every byte of it;
* **overlap** — a write that overlaps another survivor ships whole and
  is not remembered: where the bytes of overlapping writes end up
  depends on their order, which whole writes keep and cut runs would
  not.  Every remembered place a survivor overlaps without replacing it
  is forgotten, so the shadow equals the image over every range it
  holds;
* **cut** — a write that overlaps nothing is cut against the entry at
  its place, valid iff that entry has the same length **and the same
  epoch**: only the runs in which the two differ ship, neighbours
  joined wherever no more equal bytes than one run's framing part them
  (shipping those costs no more than framing another run), and an
  identical rewrite ships nothing;
* **join** — a run that touches or overlaps the run before it in the
  same file is merged into it, the later bytes winning;

and :func:`split_runs` cuts the result into objects of at most
``max_object_bytes``.

What differs by caller is passed in, never looked up: the epoch on each
write (which bases the bucket is certain to keep — GC per checkpoint on
the WAL side, supersession per dump on the checkpoint side), the byte
bound and per-run framing at construction, and when :meth:`Shadow.learn`
runs — ``plan`` itself is read-only.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import Callable


class Shadow:
    """``(path, offset) -> (epoch, data)``: the image last planned at
    each place, which is what the bucket's replay holds there for as
    long as the epoch says a base survives.

    Entries are references to ``bytes`` the owner already holds (no
    copy), oldest learned evicted first once they total more than
    ``bound`` bytes; an evicted place ships whole the next time it is
    written — bytes, never correctness.  ``framing(path)`` is what one
    more run of ``path`` adds to the owner's payload format.
    """

    __slots__ = ("_pages", "_bound", "_framing", "nbytes")

    def __init__(self, bound: int, framing: Callable[[str], int]) -> None:
        self._pages: dict[tuple[str, int], tuple[int, bytes]] = {}
        self._bound = bound
        self._framing = framing
        #: Bytes of page images held.
        self.nbytes = 0

    def plan(self, writes) -> tuple[list[tuple[str, int, bytes]], dict]:
        """Cut ``(path, offset, data, epoch)`` writes, in write order,
        down to the ``(path, offset, data)`` runs to ship, in replay
        order, and what :meth:`learn` is to be told once they are on
        their way.  The shadow itself is left as it is."""
        survivors = _coalesce(writes)
        alone, overlapped = _overlaps(survivors, self._pages)
        learned: dict = dict.fromkeys(overlapped)
        runs: list = []
        for index, (path, offset, data, epoch) in enumerate(survivors):
            if index in alone:
                key = (path, offset)
                pieces = _cut(self._pages.get(key), epoch, offset, data,
                              self._framing(path))
                learned[key] = (epoch, data)
            else:
                pieces = [(offset, data)]
            for start, piece in pieces:
                _join(runs, path, start, piece)
        return runs, learned

    def learn(self, learned: dict) -> None:
        """Take in what :meth:`plan` returned — ``None`` forgets a
        place — newest last, and evict the oldest beyond the bound."""
        pages = self._pages
        for key, entry in learned.items():
            held = pages.pop(key, None)
            if held is not None:
                self.nbytes -= len(held[1])
            if entry is not None:
                pages[key] = entry
                self.nbytes += len(entry[1])
        while self.nbytes > self._bound:
            self.nbytes -= len(pages.pop(next(iter(pages)))[1])


def _coalesce(writes) -> list[tuple[str, int, bytes, int]]:
    """The writes recovery must replay, in write order: a write is
    dropped only when a later one at its place covers every byte of it
    — a shorter rewrite leaves it where it was, so the tail it did not
    cover still replays, before whatever was written over it since."""
    kept: list = []
    latest: dict[tuple[str, int], int] = {}
    for write in writes:
        key = (write[0], write[1])
        index = latest.get(key)
        if index is not None and len(kept[index][2]) <= len(write[2]):
            kept[index] = None
        latest[key] = len(kept)
        kept.append(write)
    return [write for write in kept if write is not None]


def _overlaps(writes, pages) -> tuple[set[int], list[tuple[str, int]]]:
    """The one overlap test: the indices of the ``writes`` that overlap
    no other, and the shadow places some write overlaps."""
    spans: dict[str, list[tuple[int, int, int]]] = {}
    for index, (path, offset, data, _epoch) in enumerate(writes):
        spans.setdefault(path, []).append((offset, offset + len(data), index))
    alone: set[int] = set()
    reaches: dict[str, tuple[list[int], list[int]]] = {}
    for path, group in spans.items():
        group.sort()
        starts = [start for start, _end, _index in group]
        # reach[i]: the furthest end among group[0..i].
        reach = list(accumulate((end for _start, end, _index in group), max))
        reaches[path] = starts, reach
        last = len(group) - 1
        alone.update(
            index for position, (start, end, index) in enumerate(group)
            if (position == 0 or reach[position - 1] <= start)
            and (position == last or starts[position + 1] >= end)
        )
    overlapped = []
    for key, (_epoch, held) in pages.items():
        if key[0] in reaches:
            # Overlapped iff some write starting below the entry's end
            # reaches past its start.
            starts, reach = reaches[key[0]]
            below = bisect_left(starts, key[1] + len(held))
            if below and reach[below - 1] > key[1]:
                overlapped.append(key)
    return alone, overlapped


@lru_cache(maxsize=None)
def _long_gap(gap: int) -> re.Pattern:
    return re.compile(rb"\0{%d,}" % (gap + 1))


def _cut(base, epoch: int, offset: int, data: bytes,
         gap: int) -> list[tuple[int, bytes]]:
    """The ``(offset, bytes)`` pieces of ``data`` to ship over an image
    holding ``base`` — an ``(epoch, bytes)`` shadow entry, or ``None``.

    All of it when ``base`` is no valid base (absent, another epoch,
    another length); none when identical; else the runs in which the
    two differ, joined across stretches of at most ``gap`` equal bytes.
    The common prefix and suffix are found by bisection over C-speed
    slice comparisons, then the changed middle is XORed as integers and
    its long zero stretches found by a compiled pattern — a WAL page
    appended at its tail costs one short XOR, a slotted page changed at
    both ends one long one.
    """
    size = len(data)
    if base is None or base[0] != epoch or len(base[1]) != size:
        return [(offset, data)]
    old = base[1]
    low, high = 0, size
    while low < high:
        mid = (low + high + 1) // 2
        if old[low:mid] == data[low:mid]:
            low = mid
        else:
            high = mid - 1
    start = low
    if start == size:
        return []
    low, high = 0, size - start
    while low < high:
        mid = (low + high + 1) // 2
        if old[size - mid:size - low] == data[size - mid:size - low]:
            low = mid
        else:
            high = mid - 1
    stop = size - low
    diff = (
        int.from_bytes(old[start:stop], "little")
        ^ int.from_bytes(data[start:stop], "little")
    ).to_bytes(stop - start, "little")
    view = memoryview(data)
    pieces = []
    origin = start
    for match in _long_gap(gap).finditer(diff):
        pieces.append((offset + start, view[start:origin + match.start()]))
        start = origin + match.end()
    pieces.append((offset + start, view[start:stop]))
    return pieces


def _join(runs: list, path: str, offset: int, data) -> None:
    """Append a run, merged into the last one when it starts inside or
    right after it in the same file — the later bytes win over exactly
    the bytes they cover.  A run is widened into a ``bytearray`` only
    when a later one actually touches it."""
    if runs:
        last_path, last_offset, last_data = runs[-1]
        if last_path == path and last_offset <= offset <= last_offset + len(last_data):
            if not isinstance(last_data, bytearray):
                last_data = bytearray(last_data)
                runs[-1] = (path, last_offset, last_data)
            start = offset - last_offset
            last_data[start:start + len(data)] = data
            return
    runs.append((path, offset, data))


def split_runs(runs, max_bytes: int) -> list[list]:
    """Partition runs — tuples ending in ``(offset, data)`` — into groups
    of at most ``max_bytes`` bytes of data, in order.  A run that does
    not fit is sliced across groups as ``memoryview`` slices (no copy
    until the payload is framed); an empty one is kept."""
    groups: list[list] = []
    current: list = []
    size = 0
    for run in runs:
        *head, offset, data = run
        position = 0
        while True:
            if size == max_bytes and position < len(data):
                groups.append(current)
                current, size = [], 0
            take = min(max_bytes - size, len(data) - position)
            if take == len(data):
                current.append(run)
            else:
                current.append((*head, offset + position,
                                memoryview(data)[position:position + take]))
            size += take
            position += take
            if position == len(data):
                break
    if current:
        groups.append(current)
    return groups
