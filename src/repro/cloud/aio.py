"""The backoff observer the upload reactor hands to the retry layer.

The async verbs themselves live on
:class:`~repro.cloud.interface.ObjectStore`: every store and layer has
``aput`` / ``adelete_many``, and a store that speaks only the
synchronous colour is run on the loop's executor by the interface's
defaults.  What is left here is the one piece of per-upload context the
reactor and :class:`~repro.cloud.retry.RetryLayer` share without
importing each other: :data:`CURRENT_UPLOAD`, a context variable
holding the :class:`BackoffNote` of the upload running in the current
asyncio task.
"""

from __future__ import annotations

import contextvars


class BackoffNote:
    """Observer for retry backoffs taken by the current upload.

    The reactor installs one per in-flight PUT (via
    :data:`CURRENT_UPLOAD`) so ``health()`` can report how many of a
    tenant's uploads are parked in backoff *without* the retry layer
    knowing the reactor exists.  The default instance ignores
    everything, so synchronous callers (no reactor) pay nothing.
    """

    def backoff_started(self, seconds: float) -> None:  # pragma: no cover
        pass

    def backoff_ended(self) -> None:  # pragma: no cover
        pass


_NULL_NOTE = BackoffNote()

#: The backoff observer for the upload running in the current context.
#: asyncio gives every task a copied context, so concurrent PUTs
#: multiplexed on one loop thread each see their own note.
CURRENT_UPLOAD: contextvars.ContextVar[BackoffNote] = contextvars.ContextVar(
    "repro_current_upload", default=_NULL_NOTE
)


def current_upload() -> BackoffNote:
    """The backoff observer installed for this context (never None)."""
    return CURRENT_UPLOAD.get()
