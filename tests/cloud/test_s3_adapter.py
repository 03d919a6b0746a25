"""BotoS3Store adapter, exercised against a stub client (no network)."""

from __future__ import annotations

import io

import pytest

from repro.common.errors import CloudError, CloudObjectNotFound
from repro.cloud.interface import MAX_DELETE_KEYS
from repro.cloud.s3 import BotoS3Store


class _StubPaginator:
    def __init__(self, objects):
        self._objects = objects

    def paginate(self, Bucket, Prefix=""):
        contents = [
            {"Key": key, "Size": len(body)}
            for key, body in sorted(self._objects.items())
            if key.startswith(Prefix)
        ]
        # Two pages, to prove pagination is walked.
        mid = len(contents) // 2
        yield {"Contents": contents[:mid]}
        yield {"Contents": contents[mid:]}


class _NoSuchKey(Exception):
    def __init__(self):
        super().__init__("NoSuchKey")
        self.response = {"Error": {"Code": "NoSuchKey"}}


class _StubClient:
    """Mimics the small slice of boto3's S3 client the adapter uses."""

    def __init__(self):
        self.objects: dict[str, bytes] = {}
        self.fail = False
        #: Multi-Object Delete requests seen, and keys they must refuse.
        self.batches: list[list[str]] = []
        self.refuse: set[str] = set()

    def put_object(self, Bucket, Key, Body):
        if self.fail:
            raise RuntimeError("simulated AWS error")
        self.objects[Key] = bytes(Body)

    def get_object(self, Bucket, Key):
        if Key not in self.objects:
            raise _NoSuchKey()
        return {"Body": io.BytesIO(self.objects[Key])}

    def delete_object(self, Bucket, Key):
        self.objects.pop(Key, None)

    def delete_objects(self, Bucket, Delete):
        keys = [entry["Key"] for entry in Delete["Objects"]]
        assert 1 <= len(keys) <= MAX_DELETE_KEYS and Delete["Quiet"] is True
        if self.fail:
            raise RuntimeError("simulated AWS error")
        self.batches.append(keys)
        errors = []
        for key in keys:
            if key in self.refuse:
                errors.append({"Key": key, "Code": "AccessDenied"})
            else:
                self.objects.pop(key, None)
        return {"Errors": errors} if errors else {}

    def get_paginator(self, name):
        assert name == "list_objects_v2"
        return _StubPaginator(self.objects)


@pytest.fixture
def s3():
    client = _StubClient()
    return client, BotoS3Store("bucket", client=client, prefix="ginja/db1/")


class TestAdapter:
    def test_put_applies_prefix(self, s3):
        client, store = s3
        store.put("WAL/1", b"x")
        assert client.objects == {"ginja/db1/WAL/1": b"x"}

    def test_get_roundtrip(self, s3):
        _client, store = s3
        store.put("k", b"body")
        assert store.get("k") == b"body"

    def test_get_missing_maps_to_not_found(self, s3):
        _client, store = s3
        with pytest.raises(CloudObjectNotFound):
            store.get("missing")

    def test_list_strips_prefix_and_sorts(self, s3):
        _client, store = s3
        for key in ("WAL/2", "WAL/1", "DB/9", "DB/1", "WAL/3"):
            store.put(key, b"ab")
        infos = store.list()
        assert [i.key for i in infos] == ["DB/1", "DB/9", "WAL/1", "WAL/2", "WAL/3"]
        assert all(i.size == 2 for i in infos)

    def test_list_with_sub_prefix(self, s3):
        _client, store = s3
        store.put("WAL/1", b"x")
        store.put("DB/1", b"x")
        assert [i.key for i in store.list("WAL/")] == ["WAL/1"]

    def test_delete(self, s3):
        client, store = s3
        store.put("k", b"x")
        store.delete("k")
        assert client.objects == {}

    def test_provider_error_wrapped(self, s3):
        client, store = s3
        client.fail = True
        with pytest.raises(CloudError):
            store.put("k", b"x")


class TestMultiObjectDelete:
    def test_one_delete_objects_call_per_slice_with_the_prefix(self):
        client = _StubClient()
        store = BotoS3Store("bucket", client=client, prefix="ginja/")
        keys = [f"WAL/{i:05d}" for i in range(MAX_DELETE_KEYS + 2)]
        for key in keys:
            store.put(key, b"x")
        store.delete_many(keys)
        assert [len(batch) for batch in client.batches] == [MAX_DELETE_KEYS, 2]
        assert client.batches[1] == ["ginja/WAL/01000", "ginja/WAL/01001"]
        assert client.objects == {}

    def test_provider_exception_is_wrapped(self):
        client = _StubClient()
        store = BotoS3Store("bucket", client=client)
        client.fail = True
        with pytest.raises(CloudError, match="DELETE 2 keys"):
            store.delete_many(["a", "b"])

    def test_per_key_errors_in_the_response_fail_the_request(self):
        client = _StubClient()
        store = BotoS3Store("bucket", client=client)
        store.put("a", b"x")
        store.put("b", b"y")
        client.refuse = {"b"}
        with pytest.raises(CloudError, match="1 refused.*'b'.*AccessDenied"):
            store.delete_many(["a", "b"])
