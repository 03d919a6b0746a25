"""Local disk latency model.

Gives the RAM-backed file system the timing behaviour of the paper's
test machines (15k-RPM HDD) so the ext4/FUSE/Ginja baselines relate the
way Figure 5 shows.  The modeled latency is metered and paid in full
(paced through :meth:`~repro.common.clock.Clock.pace`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiskModel:
    """Latency = per-call base + size/throughput.

    ``fsync_latency`` dominates a WAL commit on rotational media; reads
    and writes into the page cache are nearly free, which is why only
    fsync carries a meaningful base cost for the HDD preset.
    """

    write_base: float = 0.0
    write_bytes_per_sec: float = float("inf")
    read_base: float = 0.0
    read_bytes_per_sec: float = float("inf")
    fsync_latency: float = 0.0

    def write_latency(self, nbytes: int) -> float:
        return self.write_base + nbytes / self.write_bytes_per_sec

    def read_latency(self, nbytes: int) -> float:
        return self.read_base + nbytes / self.read_bytes_per_sec


#: Zero-cost disk for unit tests.
NO_DISK_LATENCY = DiskModel()

#: 15k-RPM SAS drive, as in the paper's Dell R410s: ~2 ms rotational
#: fsync, ~150 MB/s sequential.
HDD_15K = DiskModel(
    write_base=10e-6,
    write_bytes_per_sec=150e6,
    read_base=5e-6,
    read_bytes_per_sec=180e6,
    fsync_latency=2e-3,
)

#: A modern SATA SSD, for sensitivity studies.
SSD = DiskModel(
    write_base=5e-6,
    write_bytes_per_sec=450e6,
    read_base=2e-6,
    read_bytes_per_sec=500e6,
    fsync_latency=80e-6,
)
