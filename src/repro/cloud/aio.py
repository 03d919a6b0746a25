"""Async adapter over the synchronous :class:`ObjectStore` protocol.

The upload reactor (:mod:`repro.cloud.reactor`) drives every WAL and
checkpoint PUT and every GC batch DELETE from one asyncio event loop.
Stores and transport layers that know how to cooperate expose optional
``aput`` / ``_adelete_request`` coroutines; everything else is bridged
through the loop's default executor — a small bounded pool the reactor
owns — so an arbitrary :class:`ObjectStore` still works without
holding a thread per request.

This module sits *below* the transport layers in the import graph
(transport/retry/prefix/simulated/reactor all import it; it imports
none of them), so adding an async twin to a layer never creates a
cycle.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Protocol, runtime_checkable

from repro.cloud.interface import delete_slices


@runtime_checkable
class AsyncPutStore(Protocol):
    """A store (or transport layer) with a native async PUT."""

    async def aput(self, key: str, data: bytes) -> None: ...


async def aput(store, key: str, data: bytes) -> None:
    """PUT via the store's native ``aput`` when present, else bridge
    the synchronous ``put`` through the running loop's default
    executor.

    The executor bridge runs the *whole* remaining layer chain inside
    one pool thread, so layers below the bridge keep their thread-local
    semantics; layers above it (those that implemented ``aput``) run on
    the loop with context-variable semantics.  A chain is never split
    mid-handoff: either every layer down to the backend speaks async,
    or the bridge happens at the first layer that does not.
    """
    native = getattr(store, "aput", None)
    if native is not None:
        await native(key, data)
        return
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, store.put, key, data)


async def adelete_many(store, keys) -> None:
    """Batch DELETE, one request per ``MAX_DELETE_KEYS`` slice, via the
    store's native ``_adelete_request`` when present — else the whole
    synchronous ``delete_many`` is bridged through the executor, under
    exactly the chain-splitting rule :func:`aput` documents."""
    native = getattr(store, "_adelete_request", None)
    if native is None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, store.delete_many, keys)
        return
    for request in delete_slices(keys):
        await native(request)


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
