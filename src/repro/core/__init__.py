"""VMSH core: the paper's contribution.

Public surface: :class:`Vmsh` (attach/detach), :class:`VmshSession`,
:class:`VmshConsole`, plus the pipeline pieces for tests and tooling.
"""

from repro.core.devices import (
    IoregionfdDispatch,
    VmshDeviceHost,
    WrapSyscallDispatch,
)
from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation, find_kernel
from repro.core.ksymtab import ParsedKsymtab, parse_ksymtab
from repro.core.libbuild import (
    LibraryPlan,
    STAGE2_GUEST_PATH,
    VMSH_DEVICES,
    VMSH_MMIO_BASE,
    build_library,
    plan_library,
)
from repro.core.overlay import GUEST_MOUNT_ROOT, OverlayResult, build_overlay
from repro.core.vmsh import (
    AttachReport,
    CommandResult,
    Vmsh,
    VmshConsole,
    VmshSession,
)

__all__ = [
    "Vmsh",
    "VmshSession",
    "VmshConsole",
    "AttachReport",
    "CommandResult",
    "GuestMemoryGateway",
    "KernelLocation",
    "find_kernel",
    "ParsedKsymtab",
    "parse_ksymtab",
    "LibraryPlan",
    "plan_library",
    "build_library",
    "VMSH_MMIO_BASE",
    "VMSH_DEVICES",
    "STAGE2_GUEST_PATH",
    "build_overlay",
    "OverlayResult",
    "GUEST_MOUNT_ROOT",
    "VmshDeviceHost",
    "IoregionfdDispatch",
    "WrapSyscallDispatch",
]
