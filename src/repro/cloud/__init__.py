"""Cloud object-storage substrate.

Ginja only needs the four REST verbs every storage cloud exposes —
PUT, GET, LIST, DELETE (§5 of the paper) — plus the batch form of the
last one (S3 Multi-Object Delete), which garbage collection rides and
which falls back to a DELETE loop on a store that lacks it.  This
package provides:

* :class:`~repro.cloud.interface.ObjectStore` — the verb interface;
* in-memory and on-disk backends;
* :class:`~repro.cloud.simulated.SimulatedCloud` — wraps a backend with a
  calibrated latency model, fault injection and request metering, so the
  paper's experiments run offline with realistic timing and exact billing;
* :mod:`~repro.cloud.pricing` — the May-2017 price books (S3, Azure, GCS)
  the paper's cost analysis uses;
* :class:`~repro.cloud.s3.BotoS3Store` — a thin adapter for real S3.

Replication across several providers (§6) is a placement policy, not a
store of its own: see :mod:`repro.placement` (``mirror-N/qM``).
"""

from repro.cloud.directory import DirectoryObjectStore
from repro.cloud.faults import FaultPolicy, Outage
from repro.cloud.interface import (
    MAX_DELETE_KEYS,
    ObjectInfo,
    ObjectStore,
    TransportLayer,
)
from repro.cloud.latency import (
    LatencyModel,
    LOCAL_LATENCY,
    SAME_REGION_LATENCY,
    WAN_LATENCY,
)
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.metering import RequestMeter, TenantMeterBank
from repro.cloud.prefix import PrefixedObjectStore, tenant_of_key, tenant_prefix
from repro.cloud.retry import RetryLayer, RetryPolicy
from repro.cloud.transport import (
    FaultLayer,
    MeterLayer,
    TracingLayer,
    build_transport,
    describe_transport,
)
from repro.cloud.pricing import (
    AZURE_BLOB_2017,
    GOOGLE_STORAGE_2017,
    PriceBook,
    S3_STANDARD_2017,
)
from repro.cloud.simulated import SimulatedCloud

__all__ = [
    "ObjectStore",
    "ObjectInfo",
    "MAX_DELETE_KEYS",
    "InMemoryObjectStore",
    "DirectoryObjectStore",
    "SimulatedCloud",
    "LatencyModel",
    "LOCAL_LATENCY",
    "SAME_REGION_LATENCY",
    "WAN_LATENCY",
    "FaultPolicy",
    "Outage",
    "RequestMeter",
    "TenantMeterBank",
    "PrefixedObjectStore",
    "tenant_prefix",
    "tenant_of_key",
    "RetryPolicy",
    "RetryLayer",
    "TransportLayer",
    "TracingLayer",
    "MeterLayer",
    "FaultLayer",
    "build_transport",
    "describe_transport",
    "PriceBook",
    "S3_STANDARD_2017",
    "AZURE_BLOB_2017",
    "GOOGLE_STORAGE_2017",
]
