"""Building the root fs by inode gives the tree the VFS built.

``GuestKernel._mount_root`` walks each path of the root layout over
the fresh root fs's inodes and makes the :class:`Filesystem` calls the
VFS made.  The reference below builds the same layout as the boot did
before: ``Vfs.makedirs`` for a directory, and ``Vfs.makedirs`` of the
parent plus ``Vfs.write_file`` for a file, on a second filesystem with
its own clock.  Both trees must agree in every inode (number, kind,
mode, link count, size, data and the three timestamps), in each
directory's entries and their insertion order, in the clock's advance
and in the count of ``guest_fs_op`` charges; a layout the VFS rejects
must raise the same :class:`VfsError` code, after the same partial
tree.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VfsError
from repro.guestos.fs import Filesystem
from repro.guestos.kernel import DEFAULT_ROOT_LAYOUT, GuestConfig, GuestKernel
from repro.guestos.vfs import MountNamespace, Vfs
from repro.sim.clock import Clock
from repro.sim.costs import CostModel


def _reference(costs, root_files):
    """The root fs as the VFS built it, and the error code it raised."""
    fs = Filesystem("ext4", costs=costs, label="rootfs")
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    layout = dict(DEFAULT_ROOT_LAYOUT)
    layout.update(root_files)
    try:
        for path in sorted(layout):
            content = layout[path]
            if content is None:
                vfs.makedirs(path)
            else:
                parent = path.rsplit("/", 1)[0]
                if parent:
                    vfs.makedirs(parent)
                vfs.write_file(path, content)
    except VfsError as exc:
        return fs, exc.code
    return fs, None


def _mounted(costs, root_files):
    """The root fs ``_mount_root`` builds, and the error code it raised."""
    kernel = SimpleNamespace(
        costs=costs, root_ns=MountNamespace(), config=GuestConfig(root_files=root_files),
    )
    try:
        GuestKernel._mount_root(kernel)
    except VfsError as exc:
        return kernel.root_ns.root_mount().fs, exc.code
    assert kernel.kernel_vfs.ns is kernel.root_ns
    return kernel.root_ns.root_mount().fs, None


def _tree(fs):
    """Every inode in allocation order, each with its entry names in
    insertion order (``Inode`` equality compares the entries as a dict)."""
    return [(node, list(node.entries)) for node in fs._inodes.values()]


def _assert_same_build(root_files):
    """Build both trees; return the error code both raised, if any."""
    new_costs, ref_costs = CostModel(Clock()), CostModel(Clock())
    new_fs, new_error = _mounted(new_costs, root_files)
    ref_fs, ref_error = _reference(ref_costs, root_files)
    assert new_error == ref_error
    assert _tree(new_fs) == _tree(ref_fs)
    assert new_costs.clock.now == ref_costs.clock.now
    assert new_costs.count("guest_fs_op") == ref_costs.count("guest_fs_op")
    return new_error


def test_default_layout():
    assert _assert_same_build({}) is None
    fs, _ = _mounted(CostModel(Clock()), {})
    assert len(fs._inodes) == len(DEFAULT_ROOT_LAYOUT) + 2    # and / and /usr


def test_root_files_layout():
    root_files = {
        "/app/lib/x86/libx.so": b"\x7fELF",      # nested new directories
        "/app/bin/": None,
        "/etc/hostname": b"vm-7\n",              # overrides the default
        "/srv//data/./blob": b"x" * 5000,        # two keys, one path
        "/srv/data/blob": b"y" * 10,
        "/var/log/empty": b"",
        "/usr/bin/../lib/tool": b"t",
    }
    assert _assert_same_build(root_files) is None
    fs, _ = _mounted(CostModel(Clock()), root_files)
    srv = fs.lookup(fs.root_ino, "srv")
    blob = fs.lookup(fs.lookup(srv.no, "data").no, "blob")
    assert fs.read(blob.no, 0, blob.size) == b"y" * 10
    usr_lib = fs.lookup(fs.lookup(fs.root_ino, "usr").no, "lib")
    assert list(usr_lib.entries) == ["tool"]


@pytest.mark.parametrize("root_files, code", [
    ({"etc/motd": b"hi"}, "EINVAL"),                      # relative file
    ({"opt": None}, "EINVAL"),                            # relative directory
    ({"/etc/hostname/motd": b"hi"}, "ENOTDIR"),           # a file as a parent
    ({"/bin/sh/tools": None}, "ENOTDIR"),
    ({"/etc": b"a file"}, "ENOTDIR"),                     # under /etc/hostname
    ({"/tmp/..": b"the root"}, "EISDIR"),
    ({"/app/": b"trailing slash"}, "EISDIR"),
])
def test_a_malformed_layout_raises_as_the_vfs(root_files, code):
    assert _assert_same_build(root_files) == code


NAMES = st.sampled_from(["a", "b", "etc", "hostname", "sh", "bin", "..", ".", ""])
#: mostly absolute paths; a relative one makes the layout fail
PATHS = st.builds(
    lambda root, names: root + "/".join(names),
    st.sampled_from(["/", "/", "/", ""]), st.lists(NAMES, max_size=4),
)


@given(root_files=st.dictionaries(
    PATHS, st.none() | st.binary(max_size=12), max_size=6,
))
@settings(max_examples=300, deadline=None)
def test_any_layout_builds_as_the_vfs(root_files):
    _assert_same_build(root_files)
