"""Multi-tenant fleet management: many databases, one protection process.

The paper's one-dollar economics (§7) compound when N databases share
one Ginja process — one reactor thread, one downloader pool, one
retry/meter transport stack, one bucket — while each tenant keeps its
own B/S policy, codec keys and an isolated ``tenants/<id>/`` keyspace.
:class:`~repro.fleet.manager.FleetManager` owns the shared halves and
injects them into per-tenant :class:`~repro.core.ginja.Ginja`
instances; see DESIGN.md's "Fleet architecture" for the ownership
table.
"""

from repro.fleet.manager import (
    FLEET_FORWARD_KINDS,
    FleetManager,
    UploadOverlapTracker,
)

__all__ = [
    "FleetManager",
    "UploadOverlapTracker",
    "FLEET_FORWARD_KINDS",
]
