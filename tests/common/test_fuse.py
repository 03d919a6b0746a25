"""The failure primitive every owner of off-thread work shares.

Its four rules are what the commit pipeline, the checkpoint uploader,
the encode stage and the recovery engine rely on: the first error wins,
every waiter wakes, the owner's hook runs once, and nothing runs under
a blown fuse.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.errors import GinjaError
from repro.common.fuse import Fuse


def test_the_first_error_wins_across_racing_threads():
    cond = threading.Condition(threading.RLock())
    fuse = Fuse(cond)
    start = threading.Barrier(8)
    order = []

    def worker(i):
        exc = RuntimeError(f"worker {i}")
        start.wait()
        with cond:  # reentrant: records the blows in the order they ran
            fuse.blow(exc)
            order.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(order) == 8
    assert fuse.error is order[0]


def test_every_waiter_wakes():
    cond = threading.Condition()
    fuse = Fuse(cond)
    waiting, woke = [], []

    def waiter():
        with cond:
            waiting.append(1)
            # Only a notify counts: a waiter that times out was stranded.
            if cond.wait(timeout=2.0) and fuse.error is not None:
                woke.append(1)

    threads = [threading.Thread(target=waiter) for _ in range(4)]
    for thread in threads:
        thread.start()
    while True:
        with cond:  # held here, so every counted waiter is inside wait()
            if len(waiting) == 4:
                break
        time.sleep(0.001)
    fuse.blow(RuntimeError("boom"))
    for thread in threads:
        thread.join(timeout=5)
    assert len(woke) == 4


def test_the_hook_runs_once_outside_the_lock():
    cond = threading.Condition(threading.Lock())
    calls = []

    def hook():
        free = cond.acquire(blocking=False)
        if free:
            cond.release()
        calls.append(free)

    fuse = Fuse(cond, hook)
    fuse.blow(RuntimeError("first"))
    fuse.blow(RuntimeError("second"))
    fuse.guard(lambda: 1 / 0)
    assert calls == [True]


def test_guard_runs_work_until_the_fuse_blows_then_nothing():
    fuse = Fuse()
    ran = []
    fuse.guard(ran.append, 1)
    fuse.guard(lambda: 1 / 0)
    assert isinstance(fuse.error, ZeroDivisionError)
    fuse.guard(ran.append, 2)
    assert ran == [1]


def test_a_base_exception_is_kept_as_a_ginja_error():
    fuse = Fuse()

    def interrupted():
        raise KeyboardInterrupt

    fuse.guard(interrupted)
    assert isinstance(fuse.error, GinjaError)
    assert "KeyboardInterrupt" in str(fuse.error)


def test_check_raises_from_the_recorded_error():
    fuse = Fuse()
    fuse.check("intact: nothing to raise")
    cause = RuntimeError("cause")
    fuse.blow(cause)
    with pytest.raises(GinjaError, match="pipeline failed") as excinfo:
        fuse.check("pipeline failed")
    assert excinfo.value.__cause__ is cause
