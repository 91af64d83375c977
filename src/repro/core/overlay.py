"""The container-based system overlay (§4.4).

"The file system on the block device provided by VMSH is mounted as
the root file system in a newly created mount namespace.  All old
mount points of the guest are moved under the directory
/var/lib/vmsh.  Using a mount namespace ensures that these mount
points are not propagated to existing guest processes except the ones
started by VMSH."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.guestos.fs import Filesystem
from repro.guestos.vfs import MountNamespace, Vfs

GUEST_MOUNT_ROOT = "/var/lib/vmsh"


@dataclass
class OverlayResult:
    """The assembled overlay namespace."""

    namespace: MountNamespace
    vfs: Vfs
    guest_root_path: str


def build_overlay(image_fs: Filesystem, base_ns: MountNamespace) -> OverlayResult:
    """Create the overlay namespace: image as root, guest under
    ``/var/lib/vmsh``.

    ``base_ns`` is the namespace of the process VMSH targets — the
    init namespace normally, or a container's namespace when attaching
    container-aware (§4.4).
    """
    overlay_ns = MountNamespace()
    vfs = Vfs(overlay_ns)
    vfs.mount(image_fs, "/")
    if not vfs.exists(GUEST_MOUNT_ROOT):
        vfs.makedirs(GUEST_MOUNT_ROOT)

    # Move the guest's mounts, shortest path first, so nested
    # mountpoints land inside their (already relocated) parents.
    for mount in sorted(base_ns.mounts(), key=lambda m: len(m.path)):
        if mount.path == "/":
            target = GUEST_MOUNT_ROOT
        else:
            target = GUEST_MOUNT_ROOT + mount.path
        vfs.mount(mount.fs, target)

    return OverlayResult(
        namespace=overlay_ns, vfs=vfs, guest_root_path=GUEST_MOUNT_ROOT
    )
