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
* **cut** — a write that overlaps nothing is cut against its file's
  **image** when the shadow holds one (the part past the image's end
  against zeros, a length pin giving the file its length), else
  against the entry at its place, valid iff that entry has the same
  length **and the same epoch**: only the runs in which the two differ
  ship, neighbours joined wherever no more equal bytes than one run's
  framing part them (shipping those costs no more than framing another
  run), and an identical rewrite ships nothing;
* **join** — a run that touches or overlaps the run before it in the
  same file is merged into it, the later bytes winning;

and :func:`split_runs` cuts the result into objects of at most
``max_object_bytes``.

What differs by caller is passed in, never looked up: the epoch on each
write (which bases the bucket is certain to keep — GC per checkpoint on
the WAL side, supersession per dump on the checkpoint side), the byte
bound, per-run framing and which files may hold an image at
construction, the images themselves (:meth:`Shadow.seed`), and when
:meth:`Shadow.learn` runs — ``plan`` itself is read-only.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import Callable


class Shadow:
    """What the bucket's replay holds, as far as the owner knows it.

    ``(path, offset) -> (epoch, data)``: the image last planned at each
    place, which is what the bucket's replay holds there for as long as
    the epoch says a base survives.  Entries are references to
    ``bytes`` the owner already holds (no copy), oldest learned evicted
    first once the shadow holds more than ``bound`` bytes; an evicted
    place ships whole the next time it is written — bytes, never
    correctness.  ``framing(path)`` is what one more run of ``path``
    adds to the owner's payload format.

    ``path -> bytearray``: the whole replay image of every file
    ``imaged(path)`` admits, once :meth:`seed` has handed over the dump
    they start from; a file the dump did not hold starts empty.  Every
    run planned for such a file is applied to its image by
    :meth:`learn`, and none of its places gets an entry.  The images
    count against ``bound`` too: a dump larger than it seeds none, and
    images that outgrow it once the entries are gone are dropped.
    """

    __slots__ = ("_pages", "_images", "_imaged", "_bound", "_framing",
                 "nbytes")

    def __init__(self, bound: int, framing: Callable[[str], int],
                 imaged: Callable[[str], bool] = lambda _path: False) -> None:
        self._pages: dict[tuple[str, int], tuple[int, bytes]] = {}
        self._images: dict[str, bytearray] | None = None
        self._imaged = imaged
        self._bound = bound
        self._framing = framing
        #: Bytes of page and file images held.
        self.nbytes = 0

    def seed(self, files) -> None:
        """Start over from a dump on its way to the bucket: its
        ``(path, content)`` files become the images — those
        ``imaged`` admits, when they fit the bound — and every
        entry is dropped, for the bucket replays no byte from before a
        dump on top of it."""
        files = [(path, content) for path, content in files
                 if self._imaged(path)]
        total = sum(len(content) for _path, content in files)
        self._pages.clear()
        self._images = None
        self.nbytes = 0
        if total <= self._bound:
            self._images = {path: bytearray(content) for path, content in files}
            self.nbytes = total

    def plan(self, writes) -> tuple[list[tuple[str, int, bytes]], tuple]:
        """Cut ``(path, offset, data, epoch)`` writes, in write order,
        down to the ``(path, offset, data)`` runs to ship, in replay
        order, and what :meth:`learn` is to be told once they are on
        their way.  The shadow itself is left as it is."""
        survivors = _coalesce(writes)
        alone, overlapped = _overlaps(survivors, self._pages)
        places: dict = dict.fromkeys(overlapped)
        runs: list = []
        for index, (path, offset, data, epoch) in enumerate(survivors):
            image = self._image(path)
            if index not in alone:
                pieces = [(offset, data)]
            elif image is not None:
                pieces = _cut_image(image, offset, data, self._framing(path))
            else:
                key = (path, offset)
                entry = self._pages.get(key)
                old = entry[1] if entry is not None and entry[0] == epoch else None
                pieces = _cut(old, offset, data, self._framing(path))
                places[key] = (epoch, data)
            for start, piece in pieces:
                _join(runs, path, start, piece)
        return runs, (places, runs)

    def learn(self, learned: tuple) -> None:
        """Take in what :meth:`plan` returned: every planned run of an
        imaged file lands on its image, in replay order; for other
        places, ``None`` forgets one and an entry is held newest last.
        Then evict the oldest entries beyond the bound — and, with none
        left, the images."""
        places, runs = learned
        pages = self._pages
        for key, entry in places.items():
            held = pages.pop(key, None)
            if held is not None:
                self.nbytes -= len(held[1])
            if entry is not None:
                pages[key] = entry
                self.nbytes += len(entry[1])
        if self._images is not None:
            for path, offset, data in runs:
                if self._imaged(path):
                    image = self._images.setdefault(path, bytearray())
                    end = offset + len(data)
                    if len(image) < end:
                        self.nbytes += end - len(image)
                        image.extend(bytes(end - len(image)))
                    image[offset:end] = data
        while self.nbytes > self._bound and pages:
            self.nbytes -= len(pages.pop(next(iter(pages)))[1])
        if self.nbytes > self._bound:
            self._images = None
            self.nbytes = 0

    def _image(self, path: str):
        """``path``'s image — empty for a file the dump did not hold —
        or ``None`` when it has none."""
        if self._images is None or not self._imaged(path):
            return None
        return self._images.get(path, b"")


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


def _cut(old, offset: int, data: bytes, gap: int) -> list[tuple[int, bytes]]:
    """The ``(offset, bytes)`` pieces of ``data`` to ship over an image
    holding ``old`` there — or ``None``, no valid base.

    All of it when ``old`` is no base of ``data`` (``None``, another
    length); none when identical; else the runs in which the two
    differ, joined across stretches of at most ``gap`` equal bytes.
    The common prefix and suffix are found by bisection over C-speed
    slice comparisons, then the changed middle is XORed as integers and
    its long zero stretches found by a compiled pattern — a WAL page
    appended at its tail costs one short XOR, a slotted page changed at
    both ends one long one.
    """
    size = len(data)
    if old is None or len(old) != size:
        return [(offset, data)]
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


def _cut_image(image, offset: int, data: bytes,
               gap: int) -> list[tuple[int, bytes]]:
    """The pieces of ``data`` to ship over a file whose whole replay
    image is ``image``: cut against the bytes it holds at ``offset``
    and against zeros past its end — where replay's ``fs.write``
    zero-fills the hole.  When the last piece stops short of a write
    that grows the file, the zeros after it are known-zero and
    :func:`elide_known_zeros` gives the file its length; an empty write
    ships as it is."""
    if not data:
        return [(offset, data)]
    end = offset + len(data)
    old = image[offset:end]
    if len(old) < len(data):
        old += bytes(len(data) - len(old))
    pieces = _cut(old, offset, data, gap)
    # From ``tail`` on, ``data`` equals what the image holds, and the
    # image holds nothing: zeros, known to be zero.
    stop = pieces[-1][0] + len(pieces[-1][1]) if pieces else offset
    tail = max(len(image), stop)
    if tail < end:
        pieces += elide_known_zeros(tail, memoryview(data)[tail - offset:],
                                    tail, gap)
    return pieces


def elide_known_zeros(
    offset: int, data: bytes, mark: int, framing: int,
) -> list[tuple[int, bytes]]:
    """The chunks that rebuild ``data`` at ``offset`` over an image in
    which everything from ``mark`` on is zero — as it is in ``data``.

    The known-zero tail is replaced by a one-byte **length pin** at the
    run's last byte: applying it zero-fills the hole, so recovery
    rebuilds the same bytes and the same file length.  A tail no longer
    than the pin's own cost — a chunk's ``framing`` and its byte — ships
    as it is.
    """
    end = offset + len(data)
    if end - max(mark, offset) <= framing + 1:
        return [(offset, data)]
    pin = (end - 1, b"\0")
    if mark <= offset:
        return [pin]
    return [(offset, memoryview(data)[:mark - offset]), pin]


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
