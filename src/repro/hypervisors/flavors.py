"""The five hypervisors of Table 1, with their attach-relevant quirks.

* **QEMU** — the development target: rich device models (qemu-blk,
  qemu-9p), a debugger interface, permissive runtime.  Fully supported.
* **kvmtool** — minimal VMM, no runtime APIs at all.  Supported (VMSH
  needs nothing from the VMM).
* **Firecracker** — per-thread seccomp filters that reject VMSH's
  injected syscalls; supported only with the filter disabled (§6.2).
* **crosvm** — sandboxed, has only a debugger interface.  Supported.
* **Cloud Hypervisor** — PCI/MSI-X-only interrupt model; KVM_IRQFD
  with a GSI pin fails, so VMSH cannot attach (Table 1, unsupported).
"""

from __future__ import annotations

from repro.host.files import HostFile
from repro.host.seccomp import (
    SeccompFilter,
    VMM_BASELINE_SYSCALLS,
    VMSH_INJECTED_SYSCALLS,
    firecracker_vcpu_filter,
    firecracker_vmm_filter,
)
from repro.hypervisors.base import Hypervisor
from repro.kvm.api import VmFd
from repro.virtio.p9 import P9Filesystem


class Qemu(Hypervisor):
    """qemu-system-x86_64 with KVM acceleration."""

    NAME = "qemu-system-x86_64"
    VCPU_THREAD_NAME = "CPU {index}/KVM"
    HAS_DEBUGGER_API = True
    HAS_HOTPLUG_API = True
    # Full multi-queue virtio-net with per-pair EVENT_IDX.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 8

    def create_9p_share(self, label: str = "qemu-9p") -> P9Filesystem:
        """virtio-9p host directory export (the Fig. 6 file-IO baseline)."""
        if not self.launched:
            raise RuntimeError("launch the VM before creating shares")
        backing = HostFile(f"/srv/{label}.dir", size=0, costs=self.host.costs)
        share = P9Filesystem(
            costs=self.host.costs,
            cache=self.guest.page_cache if self.guest else None,
            host_backing=backing,
            label=label,
        )
        return share


class Kvmtool(Hypervisor):
    """lkvm: the bare-bones native Linux KVM tool."""

    NAME = "lkvm"
    VCPU_THREAD_NAME = "kvm-vcpu-{index}"
    HAS_DEBUGGER_API = False
    HAS_HOTPLUG_API = False
    # lkvm's minimalist virtio never grew EVENT_IDX support; guests run
    # its queues in always-notify mode (generality-matrix quirk).
    VIRTIO_EVENT_IDX = False
    # ... and its net device is single-queue: VIRTIO_NET_F_MQ is never
    # offered, so a driver asking for more pairs falls back to one.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 1


class Firecracker(Hypervisor):
    """AWS Firecracker: microVM with strict per-thread seccomp."""

    NAME = "firecracker"
    VCPU_THREAD_NAME = "fc_vcpu {index}"
    HAS_DEBUGGER_API = False
    HAS_HOTPLUG_API = False
    # Firecracker ships x86_64 and aarch64 builds only — no riscv port.
    SUPPORTED_ARCH_FAMILIES = frozenset({"x86_64", "arm64"})
    # The microVM device model keeps net single-queue by design.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 1

    def __init__(self, *args, seccomp: bool = True,
                 vmsh_seccomp_profile: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.seccomp_enabled = seccomp
        #: a deployment that ships the VMSH-compatible profile the
        #: paper proposes: the API thread's filter additionally allows
        #: the syscalls VMSH injects (everything else stays strict).
        self.vmsh_seccomp_profile = vmsh_seccomp_profile

    def _apply_security_profile(self) -> None:
        if not self.seccomp_enabled:
            return
        assert self.process is not None
        api_thread = self.process.spawn_thread("fc_api")
        for thread in self.process.threads:
            if thread.name.startswith("fc_vcpu"):
                thread.seccomp_filter = firecracker_vcpu_filter()
            elif thread.name == "fc_api" and self.vmsh_seccomp_profile:
                thread.seccomp_filter = SeccompFilter.allowlist(
                    "fc-api-vmsh", VMM_BASELINE_SYSCALLS | VMSH_INJECTED_SYSCALLS
                )
            else:
                thread.seccomp_filter = firecracker_vmm_filter()


class Crosvm(Hypervisor):
    """ChromeOS crosvm: sandboxed device processes, debugger only."""

    NAME = "crosvm"
    VCPU_THREAD_NAME = "crosvm_vcpu{index}"
    HAS_DEBUGGER_API = True
    HAS_HOTPLUG_API = False
    # crosvm caps net multi-queue below the server VMMs.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 4


class CloudHypervisor(Hypervisor):
    """cloud-hypervisor: virtio-pci with MSI-X interrupts only."""

    NAME = "cloud-hypervisor"
    VCPU_THREAD_NAME = "vcpu{index}"
    VIRTIO_TRANSPORT = "pci"
    HAS_DEBUGGER_API = False
    HAS_HOTPLUG_API = True
    # Full multi-queue virtio-net, like QEMU.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 8
    # cloud-hypervisor targets x86_64 and aarch64 only (Table-1 row
    # for the new arch: unsupported VMM, like its mmio-attach row).
    SUPPORTED_ARCH_FAMILIES = frozenset({"x86_64", "arm64"})

    def _configure_irqchip(self, vm: VmFd) -> None:
        # MSI-X message-based interrupts only: no GSI pin routing.
        vm.gsi_routing_supported = False


ALL_HYPERVISOR_CLASSES = (Qemu, Kvmtool, Firecracker, Crosvm, CloudHypervisor)
