"""The backoff observer the upload reactor hands to the retry layer.

The async verbs themselves live on
:class:`~repro.cloud.interface.ObjectStore`: every store and layer has
``aput`` / ``adelete_many``, and a store that speaks only the
synchronous colour is run on the loop's executor by the interface's
defaults.  What is left here is the one piece of per-upload context the
reactor and :class:`~repro.cloud.retry.RetryLayer` share without
importing each other: the :class:`BackoffNote` of the upload running in
the current asyncio task, which the reactor :func:`install` s and the
retry layer finds with :func:`current_upload`.
"""

from __future__ import annotations

import asyncio
import weakref


class BackoffNote:
    """Observer for retry backoffs taken by the current upload.

    The reactor installs one per in-flight PUT (via :func:`install`)
    so ``health()`` can report how many of a tenant's uploads are
    parked in backoff *without* the retry layer knowing the reactor
    exists.  The default instance ignores everything, so synchronous
    callers (no reactor) pay nothing.
    """

    def backoff_started(self, seconds: float) -> None:  # pragma: no cover
        pass

    def backoff_ended(self) -> None:  # pragma: no cover
        pass


_NULL_NOTE = BackoffNote()

#: The backoff observer of each upload's task: concurrent PUTs
#: multiplexed on one loop thread each see their own note, and a note
#: goes with its task.
_NOTES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def install(note: BackoffNote) -> None:
    """Make ``note`` the backoff observer of the running task."""
    _NOTES[asyncio.current_task()] = note


def current_upload() -> BackoffNote:
    """The backoff observer installed for the running task (never
    None)."""
    task = asyncio.current_task()
    return _NULL_NOTE if task is None else _NOTES.get(task, _NULL_NOTE)
