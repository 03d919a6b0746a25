"""Per-tenant keyspaces: PrefixedObjectStore and the key helpers.

The fleet's isolation guarantee rests on this layer: a tenant must not
be able to see, overwrite or (via exists()) even detect another
tenant's objects.  The adversarial cases here are sibling tenants whose
ids are prefixes of each other (``tenants/1/`` vs ``tenants/10/``) —
exactly where a prefix-scan exists() or a sloppy list() strip leaks.
"""

from __future__ import annotations

import pytest

from repro.cloud.interface import ObjectStore
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.prefix import (
    PrefixedObjectStore,
    tenant_of_key,
    tenant_prefix,
)
from repro.common.errors import CloudObjectNotFound


class ListOnlyStore(ObjectStore):
    """Backend that only implements the four verbs, so exists() falls
    back to the base-class LIST scan — the path S2 guards."""

    def __init__(self):
        self._objects: dict[str, bytes] = {}

    def put(self, key, data):
        self._objects[key] = data

    def get(self, key):
        try:
            return self._objects[key]
        except KeyError:
            raise CloudObjectNotFound(key) from None

    def list(self, prefix=""):
        from repro.cloud.interface import ObjectInfo

        return sorted(
            (
                ObjectInfo(key=k, size=len(v))
                for k, v in self._objects.items()
                if k.startswith(prefix)
            ),
            key=lambda info: info.key,
        )

    def delete(self, key):
        self._objects.pop(key, None)


class TestExistsExactMatch:
    """The default exists() must be exact-key, not prefix-hit."""

    def test_prefix_sibling_is_not_existence(self):
        store = ListOnlyStore()
        store.put("tenants/10/WAL/0", b"x")
        # "tenants/1" is a strict prefix of the stored key; a scan-based
        # exists() that treats any LIST hit as presence says True here.
        assert not store.exists("tenants/1")
        assert not store.exists("tenants/1/WAL/0")
        assert store.exists("tenants/10/WAL/0")

    def test_exact_key_alongside_longer_sibling(self):
        store = ListOnlyStore()
        store.put("tenants/1/WAL/0", b"a")
        store.put("tenants/10/WAL/0", b"b")
        assert store.exists("tenants/1/WAL/0")
        assert store.exists("tenants/10/WAL/0")
        assert not store.exists("tenants/1/WAL")
        assert not store.exists("tenants/100/WAL/0")

    def test_prefixed_view_exists_is_tenant_local(self):
        backend = ListOnlyStore()
        one = PrefixedObjectStore(backend, tenant_prefix("1"))
        ten = PrefixedObjectStore(backend, tenant_prefix("10"))
        ten.put("WAL/0", b"x")
        assert ten.exists("WAL/0")
        assert not one.exists("WAL/0")
        assert not one.exists("0/WAL/0")  # can't sneak into tenant 10


class TestPrefixedObjectStore:
    def test_round_trip_and_qualification(self):
        backend = InMemoryObjectStore()
        view = PrefixedObjectStore(backend, tenant_prefix("alpha"))
        view.put("WAL/0", b"payload")
        assert view.get("WAL/0") == b"payload"
        assert backend.get("tenants/alpha/WAL/0") == b"payload"
        assert [i.key for i in backend.list()] == ["tenants/alpha/WAL/0"]

    def test_list_strips_prefix_and_stays_sorted(self):
        backend = InMemoryObjectStore()
        view = PrefixedObjectStore(backend, tenant_prefix("alpha"))
        for key in ("WAL/2", "DB/1/0", "WAL/1"):
            view.put(key, b"x")
        backend.put("tenants/beta/WAL/9", b"other tenant")
        backend.put("unrelated/key", b"stray")
        keys = [info.key for info in view.list()]
        assert keys == ["DB/1/0", "WAL/1", "WAL/2"]
        assert [info.key for info in view.list("WAL/")] == ["WAL/1", "WAL/2"]

    def test_sibling_tenant_ids_do_not_bleed_in_list(self):
        backend = InMemoryObjectStore()
        one = PrefixedObjectStore(backend, tenant_prefix("1"))
        ten = PrefixedObjectStore(backend, tenant_prefix("10"))
        one.put("WAL/0", b"one")
        ten.put("WAL/0", b"ten")
        assert [i.key for i in one.list()] == ["WAL/0"]
        assert [i.key for i in ten.list()] == ["WAL/0"]
        assert one.get("WAL/0") == b"one"
        assert ten.get("WAL/0") == b"ten"

    def test_delete_and_total_bytes_are_tenant_local(self):
        backend = InMemoryObjectStore()
        one = PrefixedObjectStore(backend, tenant_prefix("1"))
        ten = PrefixedObjectStore(backend, tenant_prefix("10"))
        one.put("WAL/0", b"aaaa")
        ten.put("WAL/0", b"bb")
        assert [info.size for info in one.list()] == [4]
        assert [info.size for info in ten.list()] == [2]
        one.delete("WAL/0")
        assert not one.exists("WAL/0")
        assert ten.exists("WAL/0")
        with pytest.raises(CloudObjectNotFound):
            one.get("WAL/0")

    def test_prefix_normalised_to_trailing_slash(self):
        backend = InMemoryObjectStore()
        view = PrefixedObjectStore(backend, "tenants/x")
        assert view.prefix == "tenants/x/"
        view.put("k", b"v")
        assert backend.exists("tenants/x/k")

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            PrefixedObjectStore(InMemoryObjectStore(), "")


class TestTenantKeyHelpers:
    def test_tenant_prefix_layout(self):
        assert tenant_prefix("db-7") == "tenants/db-7/"

    def test_tenant_of_key(self):
        assert tenant_of_key("tenants/db-7/WAL/0") == "db-7"
        assert tenant_of_key("tenants/1/DB/0/3") == "1"

    @pytest.mark.parametrize(
        "key",
        [
            "WAL/0",  # unprefixed single-tenant key
            "tenants/",  # no id at all
            "tenants/db-7",  # id but no object under it
            "tenant/db-7/WAL/0",  # wrong root
            "tenants//WAL/0",  # empty id
            "",
        ],
    )
    def test_tenant_of_key_rejects(self, key):
        assert tenant_of_key(key) is None
