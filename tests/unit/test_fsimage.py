"""The VMSH filesystem image format."""

import pytest

from repro.errors import ImageError
from repro.guestos.blockcore import MemoryBlockDevice
from repro.guestos.pagecache import PageCache
from repro.image.fsimage import ImageSpec, build_image, mount_image, parse_toc
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, PAGE_SIZE, SECTOR_SIZE


def _device_with(image: memoryview) -> MemoryBlockDevice:
    device = MemoryBlockDevice("img", max(len(image), 1 * MiB))
    device.write_sectors(0, bytes(image) + b"\x00" * (-len(image) % SECTOR_SIZE))
    return device


def test_build_and_mount_roundtrip():
    spec = (
        ImageSpec()
        .add_dir("/bin")
        .add_file("/bin/sh", b"#!SIMELF:shell\n", mode=0o755)
        .add_file("/etc/config", b"key=value\n")
        .add_symlink("/sh", "/bin/sh")
    )
    image = build_image(spec)
    costs = CostModel(Clock())
    fs = mount_image(_device_with(image), cache=PageCache(costs), costs=costs)
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    assert vfs.read_file("/bin/sh") == b"#!SIMELF:shell\n"
    assert vfs.read_file("/etc/config") == b"key=value\n"
    assert vfs.read_file("/sh") == b"#!SIMELF:shell\n"
    assert vfs.stat("/bin/sh")["mode"] & 0o7777 == 0o755


def test_parent_dirs_implied():
    spec = ImageSpec().add_file("/deep/ly/nested/file", b"x")
    fs = mount_image(_device_with(build_image(spec)), costs=CostModel(Clock()))
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    assert vfs.isdir("/deep/ly/nested")


def test_multi_page_file_content():
    payload = bytes(range(256)) * 64  # 16 KiB
    spec = ImageSpec().add_file("/big.bin", payload)
    fs = mount_image(_device_with(build_image(spec)), costs=CostModel(Clock()))
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    assert vfs.read_file("/big.bin") == payload


def test_mounted_image_takes_writes():
    spec = ImageSpec().add_file("/keep", b"original")
    image = build_image(spec, extra_space=1 * MiB)
    costs = CostModel(Clock())
    fs = mount_image(
        _device_with(image), cache=PageCache(costs), costs=costs, writable=True
    )
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    vfs.write_file("/new-file", b"written later")
    fs.sync_all()
    assert vfs.read_file("/new-file") == b"written later"
    assert vfs.read_file("/keep") == b"original"


def test_readonly_mount_rejects_writes():
    spec = ImageSpec().add_file("/f", b"x")
    fs = mount_image(
        _device_with(build_image(spec)), costs=CostModel(Clock()), writable=False
    )
    from repro.errors import VfsError
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    with pytest.raises(VfsError, match="EROFS"):
        vfs.write_file("/f2", b"y")


def test_bad_magic_rejected():
    device = MemoryBlockDevice("junk", 1 * MiB)
    device.write_sectors(0, b"NOTANIMG" + b"\x00" * 504)
    with pytest.raises(ImageError):
        mount_image(device, costs=CostModel(Clock()))


def test_relative_path_rejected():
    spec = ImageSpec()
    spec.files["relative"] = b"x"
    with pytest.raises(ImageError):
        build_image(spec)


def test_image_data_read_through_device_costs():
    """Reading image files must issue block IO, not cheat."""
    from repro.sim.clock import Clock
    from repro.sim.costs import CostModel

    costs = CostModel(Clock())
    spec = ImageSpec().add_file("/tool", b"\xaa" * (8 * PAGE_SIZE))
    fs = mount_image(
        _device_with(build_image(spec)), cache=PageCache(costs), costs=costs
    )
    from repro.guestos.vfs import MountNamespace, Vfs

    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    costs.reset_counters()
    vfs.read_file("/tool")
    assert costs.count("guest_block_submit") >= 1
