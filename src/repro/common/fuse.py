"""One failure discipline: the first fatal error wins, and it is never silent.

A component whose work runs on threads it does not own — claim jobs
and completion callbacks on the upload reactor's loop, fetches on a
download pool — has to turn a failure escaping that work
into its own state, or whoever waits on the work (a DBMS writer parked
on S, a ``drain()``, a restore's apply cursor) waits forever on work
that died.  :class:`Fuse` is that state, with four rules:

* it holds the **first** fatal error; later ones are ignored;
* :meth:`Fuse.blow` wakes every waiter on the owner's condition and
  runs the owner's one first-fatal hook, once, outside the lock;
* :meth:`Fuse.guard` runs work only while the fuse is intact, and blows
  it with whatever escapes the work;
* :meth:`Fuse.check` raises :class:`~repro.common.errors.GinjaError`
  caused by the recorded error.

DESIGN.md ("Failure discipline") lists each owner and its hook.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.common.errors import GinjaError


class Fuse:
    """The first fatal error of one owner.

    Args:
        cond: the owner's condition — the one its waiters wait on
            (default: a private one).
        on_blow: called with no argument after the *first* blow, outside
            ``cond``'s lock.
    """

    __slots__ = ("error", "_cond", "_on_blow")

    def __init__(self, cond: threading.Condition | None = None,
                 on_blow: Callable[[], None] | None = None):
        #: The first fatal error, or ``None`` while intact.  A plain
        #: attribute, so a hot path tests it without a lock or a call.
        self.error: Exception | None = None
        self._cond = cond if cond is not None else threading.Condition()
        self._on_blow = on_blow

    def blow(self, exc: BaseException) -> None:
        """Record ``exc`` unless an error is already recorded (a bare
        ``BaseException`` is kept as a :class:`GinjaError`), and wake
        every waiter either way."""
        with self._cond:
            first = self.error is None
            if first:
                self.error = (
                    exc if isinstance(exc, Exception) else GinjaError(repr(exc))
                )
            self._cond.notify_all()
        if first and self._on_blow is not None:
            self._on_blow()

    def guard(self, fn: Callable[..., object], *args) -> None:
        """Run ``fn(*args)`` unless the fuse is blown; whatever escapes
        it blows the fuse instead of the thread it runs on."""
        if self.error is not None:
            return
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - the one work boundary
            self.blow(exc)

    def check(self, what: str) -> None:
        """Raise ``GinjaError(what)`` from the recorded error, if any."""
        if self.error is not None:
            raise GinjaError(what) from self.error
