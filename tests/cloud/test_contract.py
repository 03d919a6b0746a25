"""The object-store contract: five primitive requests per store, every
other verb derived once, in :class:`ObjectStore`.

A store implements ``put`` / ``aput``, ``get``, ``list``, ``stat`` and
the batch DELETE ``_delete_request`` / ``_adelete_request``.
``delete``, ``delete_many``, ``adelete_many`` and ``exists`` are the
interface's alone, so a layer cannot give one of them a behaviour its
primitive request lacks.  A transport layer writes not even the
primitives: :class:`TransportLayer` does, once, and a layer overrides
only its two hooks, ``_call`` / ``_acall``.
"""

from __future__ import annotations

import asyncio
import importlib
import pkgutil

import pytest

import repro
from repro.cloud.interface import ObjectStore, TransportLayer
from repro.cloud.memory import InMemoryObjectStore

DERIVED = ("delete", "delete_many", "adelete_many", "exists")
PRIMITIVE = (
    "put", "aput", "get", "list", "stat",
    "_delete_request", "_adelete_request",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _source_stores():
    """Every ObjectStore subclass defined in the package, after
    importing all of it (a store is found only once its module is)."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    return sorted(
        {cls for cls in _subclasses(ObjectStore)
         if cls.__module__.startswith("repro.")},
        key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
    )


class ReadOnly(ObjectStore):
    """Knows PUT, GET and LIST, and no DELETE of either kind."""

    def __init__(self):
        self.inner = InMemoryObjectStore()

    def put(self, key, data):
        self.inner.put(key, data)

    def get(self, key):
        return self.inner.get(key)

    def list(self, prefix=""):
        return self.inner.list(prefix)


class TestDerivedVerbsLiveInTheInterface:
    def test_the_walk_finds_the_stores(self):
        names = {cls.__name__ for cls in _source_stores()}
        assert {
            "InMemoryObjectStore", "DirectoryObjectStore", "BotoS3Store",
            "SimulatedCloud", "PrefixedObjectStore", "RetryLayer",
            "TransportLayer", "FaultLayer", "MeterLayer",
            "TracingLayer", "PlacementStore",
        } <= names

    def test_no_store_under_src_overrides_a_derived_verb(self):
        offenders = [
            f"{cls.__module__}.{cls.__qualname__}.{verb}"
            for cls in _source_stores()
            for verb in DERIVED
            if verb in vars(cls)
        ]
        assert offenders == []

    def test_a_transport_layer_writes_hooks_not_verbs(self):
        layers = [cls for cls in _source_stores()
                  if issubclass(cls, TransportLayer) and cls is not TransportLayer]
        assert {"RetryLayer", "FaultLayer", "MeterLayer", "TracingLayer",
                "SimulatedCloud"} <= {cls.__name__ for cls in layers}
        offenders = [
            f"{cls.__module__}.{cls.__qualname__}.{verb}"
            for cls in layers
            for verb in PRIMITIVE
            if verb in vars(cls)
        ]
        assert offenders == []


class TestADeleteIsRequired:
    def test_sync_delete_names_the_class(self):
        store = ReadOnly()
        store.put("k", b"x")
        with pytest.raises(NotImplementedError, match="ReadOnly"):
            store.delete("k")
        with pytest.raises(NotImplementedError, match="ReadOnly"):
            store.delete_many(["k", "j"])
        assert store.exists("k")

    def test_async_delete_names_the_class(self):
        with pytest.raises(NotImplementedError, match="ReadOnly"):
            asyncio.run(ReadOnly().adelete_many(["k"]))

    def test_no_keys_needs_no_delete(self):
        store = ReadOnly()
        store.delete_many([])
        asyncio.run(store.adelete_many([]))
