"""Real Amazon S3 backend via boto3.

This adapter lets a Ginja deployment point at an actual bucket, exactly
as the paper's prototype did.  It is deliberately thin: all DR logic
lives above the :class:`~repro.cloud.interface.ObjectStore` interface.

The test suite exercises this module against a stub client only — the
reproduction environment has no network access.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import CloudError, CloudObjectNotFound
from repro.cloud.interface import ObjectInfo, ObjectStore


class BotoS3Store(ObjectStore):
    """An S3 bucket (optionally under a key prefix) as an ObjectStore.

    Args:
        bucket: bucket name.
        client: a ``boto3`` S3 client, or any object with the same
            ``put_object`` / ``get_object`` / ``delete_object`` /
            ``delete_objects`` / ``get_paginator`` surface (tests pass
            a stub).
        prefix: key prefix inside the bucket, e.g. ``"ginja/mydb/"``.
    """

    def __init__(self, bucket: str, client: Any = None, prefix: str = ""):
        if client is None:
            import boto3  # deferred: optional dependency

            client = boto3.client("s3")
        self._bucket = bucket
        self._client = client
        self._prefix = prefix

    def _full(self, key: str) -> str:
        return self._prefix + key

    def put(self, key: str, data: bytes) -> None:
        try:
            self._client.put_object(Bucket=self._bucket, Key=self._full(key), Body=data)
        except Exception as exc:  # boto raises provider-specific classes
            raise CloudError(f"PUT {key!r}: {exc}") from exc

    def get(self, key: str) -> bytes:
        try:
            response = self._client.get_object(Bucket=self._bucket, Key=self._full(key))
        except Exception as exc:
            if _is_missing_key_error(exc):
                raise CloudObjectNotFound(key) from exc
            raise CloudError(f"GET {key!r}: {exc}") from exc
        return response["Body"].read()

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        infos: list[ObjectInfo] = []
        try:
            paginator = self._client.get_paginator("list_objects_v2")
            for page in paginator.paginate(
                Bucket=self._bucket, Prefix=self._full(prefix)
            ):
                for entry in page.get("Contents", []):
                    key = entry["Key"]
                    if key.startswith(self._prefix):
                        key = key[len(self._prefix):]
                    infos.append(ObjectInfo(key=key, size=entry["Size"]))
        except Exception as exc:
            raise CloudError(f"LIST {prefix!r}: {exc}") from exc
        infos.sort(key=lambda info: info.key)
        return infos

    def delete(self, key: str) -> None:
        try:
            self._client.delete_object(Bucket=self._bucket, Key=self._full(key))
        except Exception as exc:
            raise CloudError(f"DELETE {key!r}: {exc}") from exc

    def _delete_request(self, keys: list[str]) -> None:
        # Multi-Object Delete; an overridden ``delete`` is honoured by
        # the per-key loop (see InMemoryObjectStore).
        if type(self).delete is not BotoS3Store.delete:
            super()._delete_request(keys)
            return
        objects = [{"Key": self._full(key)} for key in keys]
        try:
            response = self._client.delete_objects(
                Bucket=self._bucket, Delete={"Objects": objects, "Quiet": True}
            )
        except Exception as exc:
            raise CloudError(f"DELETE {len(keys)} keys: {exc}") from exc
        errors = (response or {}).get("Errors")
        if errors:
            raise CloudError(
                f"DELETE {len(keys)} keys: {len(errors)} refused, "
                f"first {errors[0].get('Key')!r}: {errors[0].get('Code')}"
            )


def _is_missing_key_error(exc: Exception) -> bool:
    """True if a boto exception means the key does not exist."""
    code = getattr(exc, "response", {}).get("Error", {}).get("Code", "")
    return code in ("NoSuchKey", "404")
