"""Guest block layer: the device interface filesystems sit on.

Three device families implement :class:`BlockDevice`:

* :class:`MemoryBlockDevice` — RAM-backed, used for tmpfs-like
  filesystems and unit tests;
* ``NativeDisk`` (below) — a host NVMe partition accessed without any
  virtualisation, the "native" baseline of §6;
* the VirtIO guest disk in :mod:`repro.virtio.blk` — requests travel
  through a virtqueue to qemu-blk or vmsh-blk.
"""

from __future__ import annotations

from repro.errors import GuestError
from repro.sim.costs import CostModel
from repro.units import SECTOR_SIZE


class BlockDevice:
    """Abstract sector-addressed block device."""

    #: device name as it appears under /dev in the guest
    name: str = "blk?"
    #: whether the device advertises project-quota support (§6.1: the
    #: three xfstests quota-reporting failures trace back to virtio
    #: transports not exposing this)
    supports_pquota: bool = False

    @property
    def capacity_sectors(self) -> int:
        raise NotImplementedError

    def read_sectors(self, sector: int, count: int) -> bytes:
        raise NotImplementedError

    def write_sectors(self, sector: int, data: bytes) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Barrier/flush; default no-op."""

    # -- helpers ---------------------------------------------------------------

    def _check(self, sector: int, count: int) -> None:
        if sector < 0 or count <= 0 or sector + count > self.capacity_sectors:
            raise GuestError(
                f"block access [{sector}, {sector + count}) beyond device "
                f"{self.name} of {self.capacity_sectors} sectors"
            )


class MemoryBlockDevice(BlockDevice):
    """RAM-backed block device (no simulated IO cost)."""

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes % SECTOR_SIZE:
            raise ValueError("capacity must be sector aligned")
        self.name = name
        self._capacity_sectors = capacity_bytes // SECTOR_SIZE
        self._store: dict = {}

    @property
    def capacity_sectors(self) -> int:
        return self._capacity_sectors

    def read_sectors(self, sector: int, count: int) -> bytes:
        self._check(sector, count)
        return b"".join(
            self._store.get(sector + i, b"\x00" * SECTOR_SIZE) for i in range(count)
        )

    def write_sectors(self, sector: int, data: bytes) -> None:
        if len(data) % SECTOR_SIZE:
            raise ValueError("write must be sector aligned")
        count = len(data) // SECTOR_SIZE
        self._check(sector, count)
        for i in range(count):
            self._store[sector + i] = bytes(
                data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
            )


class NativeDisk(BlockDevice):
    """A host NVMe partition accessed natively (the baseline in §6).

    Charges real NVMe-class service time through the cost model but
    involves no VMEXITs, no virtqueues and no extra copies.
    """

    supports_pquota = True

    def __init__(self, name: str, capacity_bytes: int, costs: CostModel):
        if capacity_bytes % SECTOR_SIZE:
            raise ValueError("capacity must be sector aligned")
        self.name = name
        self._capacity_sectors = capacity_bytes // SECTOR_SIZE
        self._store: dict = {}
        self._costs = costs

    @property
    def capacity_sectors(self) -> int:
        return self._capacity_sectors

    def read_sectors(self, sector: int, count: int) -> bytes:
        self._check(sector, count)
        self._costs.syscall()
        self._costs.disk_io(count * SECTOR_SIZE)
        return b"".join(
            self._store.get(sector + i, b"\x00" * SECTOR_SIZE) for i in range(count)
        )

    def write_sectors(self, sector: int, data: bytes) -> None:
        if len(data) % SECTOR_SIZE:
            raise ValueError("write must be sector aligned")
        count = len(data) // SECTOR_SIZE
        self._check(sector, count)
        self._costs.syscall()
        self._costs.disk_io(len(data))
        for i in range(count):
            self._store[sector + i] = bytes(
                data[i * SECTOR_SIZE : (i + 1) * SECTOR_SIZE]
            )

    def discard_all(self) -> None:
        """SSD TRIM, as the paper does before each IO benchmark."""
        self._store.clear()
