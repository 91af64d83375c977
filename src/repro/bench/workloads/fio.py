"""fio — the Flexible I/O Tester (§6.3 B/C, Figure 6; rows in Figure 5).

Matches the paper's configurations: libaio-style direct IO on the
block path, sequential 256 KiB accesses for peak throughput, 4 KiB for
peak IOPS, plus the buffered file-IO variants used against qemu-9p.
Sizes are scaled for simulation but block sizes and access patterns
are the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import BenchEnv, Measurement, ops_per_second, throughput_mb_s
from repro.guestos.vfs import O_CREAT, O_DIRECT, O_RDWR
from repro.sim.rng import stream
from repro.units import KiB, MiB, SECTOR_SIZE


@dataclass
class FioJob:
    """One fio job definition."""

    block_size: int
    total_bytes: int
    pattern: str = "seq"        # "seq" | "rand"
    direction: str = "read"     # "read" | "write"
    direct: bool = True
    name: str = ""
    iodepth: int = 1            # in-flight window (libaio-style engine)

    def __post_init__(self) -> None:
        if not self.name:
            bs = f"{self.block_size // KiB}KB" if self.block_size < MiB else f"{self.block_size // MiB}MB"
            io = "Direct" if self.direct else "File"
            depth = f", qd{self.iodepth}" if self.iodepth != 1 else ""
            self.name = f"fio {self.pattern} {self.direction} {bs} ({io} IO{depth})"


def run_fio(env: BenchEnv, job: FioJob) -> Measurement:
    """Run one fio job on the environment, measured in virtual time."""
    vfs = env.vfs
    path = f"{env.mountpoint}/fio.dat"
    flags = {O_RDWR, O_CREAT}
    if job.direct:
        flags.add(O_DIRECT)

    # Lay out the file (unmeasured, like fio's prep phase) — buffered,
    # then synced, so reads have real data to find.
    prep = vfs.open(path, {O_RDWR, O_CREAT})
    chunk = b"\xa5" * (256 * KiB)
    written = 0
    while written < job.total_bytes:
        take = min(len(chunk), job.total_bytes - written)
        vfs.pwrite(prep, chunk[:take], written)
        written += take
    vfs.fsync(prep)
    vfs.close(prep)
    env.drop_caches()

    offsets = _offsets(job)
    payload = b"\x5a" * job.block_size
    handle = vfs.open(path, flags)
    ops = 0
    with env.elapsed() as timer:
        for offset in offsets:
            if job.direction == "read":
                data = vfs.pread(handle, job.block_size, offset)
                if len(data) != job.block_size:
                    raise AssertionError("fio short read")
            else:
                vfs.pwrite(handle, payload, offset)
            ops += 1
        if job.direction == "write" and not job.direct:
            vfs.fsync(handle)
    vfs.close(handle)
    vfs.unlink(path)

    elapsed = timer.elapsed
    nbytes = ops * job.block_size
    return Measurement(
        env=env.name,
        workload=job.name,
        metric="MB/s",
        value=throughput_mb_s(nbytes, elapsed),
        elapsed_ns=elapsed,
        detail={
            "iops": ops_per_second(ops, elapsed),
            "ops": ops,
            "bytes": nbytes,
        },
    )


def run_fio_blockdev(env: BenchEnv, job: FioJob) -> Measurement:
    """libaio-equivalent engine: raw block-device IO with a queue.

    Bypasses the guest VFS and page cache and drives the virtio block
    device directly, keeping ``job.iodepth`` requests in flight through
    the driver's queued submission API — fio's ``ioengine=libaio
    iodepth=N direct=1`` configuration against a raw device.  Devices
    without a queued API fall back to synchronous submission (an
    effective depth of 1).
    """
    device = env.device
    if device is None:
        raise AssertionError(f"{env.name} has no block device to drive")
    if job.block_size % SECTOR_SIZE:
        raise AssertionError("block size must be sector aligned")
    sectors = job.block_size // SECTOR_SIZE
    requests = [(offset // SECTOR_SIZE, sectors) for offset in _offsets(job)]
    payload = b"\x5a" * job.block_size

    set_depth = getattr(device, "set_iodepth", None)
    prev_depth = getattr(device, "iodepth", 1)
    if set_depth is not None:
        set_depth(job.iodepth)
    try:
        with env.elapsed() as timer:
            if job.direction == "read":
                queued = getattr(device, "read_sectors_queued", None)
                if queued is not None:
                    results = queued(requests)
                else:
                    results = [device.read_sectors(s, c) for s, c in requests]
                if any(len(data) != job.block_size for data in results):
                    raise AssertionError("fio short read")
            else:
                queued = getattr(device, "write_sectors_queued", None)
                if queued is not None:
                    queued([(sector, payload) for sector, _ in requests])
                else:
                    for sector, _count in requests:
                        device.write_sectors(sector, payload)
    finally:
        if set_depth is not None:
            set_depth(prev_depth)

    elapsed = timer.elapsed
    ops = len(requests)
    nbytes = ops * job.block_size
    return Measurement(
        env=env.name,
        workload=f"{job.name} [blockdev]",
        metric="IOPS",
        value=ops_per_second(ops, elapsed),
        elapsed_ns=elapsed,
        detail={
            "mb_s": throughput_mb_s(nbytes, elapsed),
            "ops": ops,
            "bytes": nbytes,
            "iodepth": job.iodepth,
        },
    )


def _offsets(job: FioJob):
    count = job.total_bytes // job.block_size
    if job.pattern == "seq":
        return [i * job.block_size for i in range(count)]
    rng = stream(f"fio:{job.name}:{job.total_bytes}")
    slots = list(range(count))
    rng.shuffle(slots)
    return [slot * job.block_size for slot in slots]


# The paper's two headline configurations (Fig. 6).

def throughput_job(direction: str, total: int = 16 * MiB) -> FioJob:
    """Best case: large sequential blocks (256 KiB)."""
    return FioJob(block_size=256 * KiB, total_bytes=total, pattern="seq",
                  direction=direction, direct=True)


def iops_job(direction: str, total: int = 4 * MiB) -> FioJob:
    """Worst case: small blocks (4 KiB), maximising per-access cost."""
    return FioJob(block_size=4 * KiB, total_bytes=total, pattern="seq",
                  direction=direction, direct=True)


def file_io_job(direction: str, total: int = 8 * MiB) -> FioJob:
    """Buffered file IO (the qemu-9p comparison)."""
    return FioJob(block_size=4 * KiB, total_bytes=total, pattern="seq",
                  direction=direction, direct=False)
