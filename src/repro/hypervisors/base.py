"""Base class for the simulated KVM userspace hypervisors.

Each hypervisor is an ordinary host process that opens ``/dev/kvm``,
creates a VM, mmaps guest RAM, spawns one thread per vCPU (each sitting
in ``KVM_RUN``), emulates its devices in-process and boots a guest
kernel.  VMSH never calls any of this code: it only ever sees the
process from the outside — exactly the non-cooperativeness the paper
requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import KvmError
from repro.guestos.kernel import GuestConfig, GuestKernel
from repro.guestos.version import KernelVersion
from repro.host.files import HostFile
from repro.host.kernel import HostKernel
from repro.host.process import Process, Thread
from repro.kvm.api import KvmSystem, VmFd
from repro.kvm.exits import MmioExit
from repro.kvm.vcpu import VcpuFd
from repro.mem.layout import VIRTIO_MMIO_REGION_BASE
from repro.units import GiB, MiB, SECTOR_SIZE
from repro.virtio.blk import RawDiskBackend, VirtioBlkDevice
from repro.virtio.memio import InProcessAccessor
from repro.virtio.mmio import VirtioMmioDevice
from repro.virtio.net import VirtioNetDevice
from repro.virtio.p9 import P9Filesystem

MMIO_WINDOW_STRIDE = 0x1000
FIRST_DEVICE_GSI = 32


class Hypervisor:
    """A generic KVM userspace hypervisor."""

    NAME = "generic-vmm"
    VCPU_THREAD_NAME = "vcpu{index}"
    VIRTIO_TRANSPORT = "mmio"
    #: whether this VMM's virtio devices offer VIRTIO_RING_F_EVENT_IDX.
    #: Table-1 quirk knob: a flavor that never offers it (kvmtool) must
    #: still boot, serve IO, and survive attach — drivers fall back to
    #: always-notify rings.
    VIRTIO_EVENT_IDX = True
    #: virtio-net queue pairs this VMM's device model supports.  Another
    #: Table-1-style quirk row: minimalist VMMs ship single-queue net
    #: devices, so a guest asking for more is silently clamped — the
    #: device never offers VIRTIO_NET_F_MQ and drivers must not ack it.
    VIRTIO_NET_QUEUE_PAIRS_MAX = 8
    #: guest ISA families this VMM can boot (the per-arch row of the
    #: generality matrix).  Keyed on :attr:`repro.arch.Arch.family`, so
    #: one row covers every paging variant of an ISA (Sv39 and Sv48
    #: riscv64 descriptors share the "riscv64" entry).
    SUPPORTED_ARCH_FAMILIES = frozenset({"x86_64", "arm64", "riscv64"})

    def __init__(
        self,
        host: HostKernel,
        kvm: KvmSystem,
        guest_version: KernelVersion = KernelVersion(5, 10),
        vcpus: int = 1,
        ram_bytes: int = 512 * MiB,
        root_files: Optional[Dict[str, Optional[bytes]]] = None,
    ):
        self.host = host
        self.kvm = kvm
        self.guest_version = guest_version
        self.vcpu_count = vcpus
        self.ram_bytes = ram_bytes
        self.root_files = dict(root_files or {})

        self.process: Optional[Process] = None
        self.vm: Optional[VmFd] = None
        self.vm_fd = -1
        self.guest: Optional[GuestKernel] = None
        self.iothread: Optional[Thread] = None
        self._mmio_devices: Dict[int, VirtioMmioDevice] = {}
        self._next_window = VIRTIO_MMIO_REGION_BASE
        self._next_gsi = FIRST_DEVICE_GSI
        self._pending_disks: List[Tuple[HostFile, str]] = []
        self._pending_nics: List[Tuple[object, str, int]] = []
        self.nics: Dict[str, VirtioNetDevice] = {}
        self.launched = False

    # ------------------------------------------------------------------
    # Launch sequence
    # ------------------------------------------------------------------

    def launch(self) -> GuestKernel:
        """Create the VM, set up devices, boot the guest."""
        if self.launched:
            raise KvmError(f"{self.NAME} already launched")
        if self.kvm.arch.family not in self.SUPPORTED_ARCH_FAMILIES:
            raise KvmError(
                f"{self.NAME} has no {self.kvm.arch.family} port "
                f"(supports: {', '.join(sorted(self.SUPPORTED_ARCH_FAMILIES))})"
            )
        self.process = self.host.spawn_process(self.NAME)
        main = self.process.main_thread
        kvm_fd = self.process.fds.install(self.kvm)
        self.vm_fd = self.host.syscall(main, "ioctl", kvm_fd, "KVM_CREATE_VM")
        self.vm = self.process.fds.get(self.vm_fd)  # type: ignore[assignment]
        assert isinstance(self.vm, VmFd)
        self._configure_irqchip(self.vm)

        ram_hva = self.host.syscall(main, "mmap", self.ram_bytes, "guest-ram")
        self.host.syscall(
            main,
            "ioctl",
            self.vm_fd,
            "KVM_SET_USER_MEMORY_REGION",
            {"slot": 0, "gpa": 0, "size": self.ram_bytes, "hva": ram_hva},
        )

        for index in range(self.vcpu_count):
            vcpu_fd = self.host.syscall(main, "ioctl", self.vm_fd, "KVM_CREATE_VCPU")
            vcpu = self.process.fds.get(vcpu_fd)
            assert isinstance(vcpu, VcpuFd)
            thread = self.process.spawn_thread(
                self.VCPU_THREAD_NAME.format(index=index)
            )
            vcpu.run_thread = thread
        self.iothread = self.process.spawn_thread("iothread")

        self.vm.userspace_exit_handler = self._handle_mmio_exit
        self._setup_devices()
        self._apply_security_profile()

        config = GuestConfig(
            version=self.guest_version,
            rng_label=f"{self.NAME}-{self.process.pid}",
            mmio_devices=tuple(
                (base, self._gsi_of(base)) for base in sorted(self._mmio_devices)
            ),
            root_files=self.root_files,
            nic_queue_pairs=max(
                [1] + [
                    min(pairs, self.VIRTIO_NET_QUEUE_PAIRS_MAX)
                    for _, _, pairs in self._pending_nics
                ]
            ),
        )
        self.guest = GuestKernel(self.vm, config)
        self.guest.boot()
        self.launched = True
        # Tag this VM's registry subtree: everything a layer records
        # under ``scope("vm", vm=<pid>)`` aggregates per VM, and the
        # launch gauges pin flavor/shape for snapshot consumers.
        self.metrics = self.host.obs.metrics.scope(
            "vm", vm=self.process.pid, flavor=self.NAME
        )
        self.metrics.gauge("vcpus").set(self.vcpu_count)
        self.metrics.gauge("ram_bytes").set(self.ram_bytes)
        self.metrics.counter("launched").inc()
        self.host.obs.instant(
            "vmm.launched", track="fleet",
            flavor=self.NAME, pid=self.process.pid,
        )
        self.host.tracer.emit("vmm", "launched", name=self.NAME, pid=self.process.pid)
        return self.guest

    # Hooks subclasses override -------------------------------------------------------

    def _configure_irqchip(self, vm: VmFd) -> None:
        """Default: full GSI pin routing (KVM in-kernel irqchip)."""

    def _setup_devices(self) -> None:
        for host_file, name in self._pending_disks:
            self._attach_blk(host_file, name)
        for port, name, queue_pairs in self._pending_nics:
            self._attach_nic(port, name, queue_pairs)

    def _apply_security_profile(self) -> None:
        """Default: no seccomp confinement."""

    # Device plumbing ----------------------------------------------------------------------

    def _memio_accessor(self, name: str) -> InProcessAccessor:
        """A device's guest-memory accessor, counted as ``memio{device=name}``."""
        assert self.vm is not None
        accessor = InProcessAccessor(self.vm.guest_memory(), self.host.costs, label=name)
        self.bind_memio(accessor)
        return accessor

    def bind_memio(self, accessor: InProcessAccessor) -> None:
        """Bind a device accessor's stats under the VM's current pid.

        A snapshot clone re-binds once its process has a fresh pid,
        keeping the label the device was launched with.
        """
        assert self.process is not None
        accessor.stats.bind(
            self.host.obs.metrics.scope(
                "memio", role="vmm", vm=self.process.pid, device=accessor.label
            )
        )

    def add_disk(self, host_file: HostFile, name: str = "disk0") -> None:
        """Register a raw disk to expose as a virtio-blk device."""
        if self.launched:
            raise KvmError("disks must be added before launch")
        self._pending_disks.append((host_file, name))

    def _attach_blk(self, host_file: HostFile, name: str) -> VirtioBlkDevice:
        assert self.process is not None and self.vm is not None
        assert self.iothread is not None
        disk_fd = self.process.fds.install(host_file)
        backend = RawDiskBackend(
            self.host,
            self.iothread,
            disk_fd,
            capacity_sectors=host_file.size // SECTOR_SIZE,
        )
        gsi = self._next_gsi
        self._next_gsi += 1
        vm = self.vm
        costs = self.host.costs

        def inject_irq() -> None:
            # In-process devices assert the line with KVM_IRQ_LINE.
            costs.syscall()
            vm.inject_irq(gsi)

        device = VirtioBlkDevice(
            accessor=self._memio_accessor(name),
            irq_signal=inject_irq,
            costs=costs,
            backend=backend,
            name=f"{self.NAME}-blk-{name}",
            offer_event_idx=self.VIRTIO_EVENT_IDX,
        )
        base = self._next_window
        self._next_window += MMIO_WINDOW_STRIDE
        self._mmio_devices[base] = device
        device.gsi = gsi  # type: ignore[attr-defined]
        return device

    def add_nic(self, port, name: str = "net0", queue_pairs: int = 1) -> None:
        """Register a fabric port to expose as a virtio-net device.

        ``port`` is a :class:`repro.sim.netfab.NetPort` (or anything
        with ``mac``, ``transmit(frame, pair)`` and ``connect(sink)``).
        """
        if self.launched:
            raise KvmError("NICs must be added before launch")
        self._pending_nics.append((port, name, queue_pairs))

    def _attach_nic(self, port, name: str, queue_pairs: int) -> VirtioNetDevice:
        assert self.process is not None and self.vm is not None
        pairs = max(1, min(queue_pairs, self.VIRTIO_NET_QUEUE_PAIRS_MAX))
        gsi = self._next_gsi
        self._next_gsi += 1
        vm = self.vm
        costs = self.host.costs

        def inject_irq() -> None:
            # In-process devices assert the line with KVM_IRQ_LINE.
            costs.syscall()
            vm.inject_irq(gsi)

        device = VirtioNetDevice(
            accessor=self._memio_accessor(name),
            irq_signal=inject_irq,
            costs=costs,
            mac=port.mac,
            name=f"{self.NAME}-net-{name}",
            queue_pairs=pairs,
            offer_event_idx=self.VIRTIO_EVENT_IDX,
            offer_mq=self.VIRTIO_NET_QUEUE_PAIRS_MAX > 1,
        )
        device.connect_tx(port.transmit)
        port.connect(device.deliver)
        # Route the data plane through the host's fault injector so
        # chaos plans can hit virtio.net_{rx,tx}_ring.
        device.fault_check = self.host.faults.check
        base = self._next_window
        self._next_window += MMIO_WINDOW_STRIDE
        self._mmio_devices[base] = device
        device.gsi = gsi  # type: ignore[attr-defined]
        self.nics[name] = device
        return device

    def create_9p_share(self, label: str = "qemu-9p") -> P9Filesystem:
        """Create a 9p export backed by a host directory (QEMU only)."""
        raise KvmError(f"{self.NAME} does not support 9p shares")

    def _gsi_of(self, base: int) -> int:
        return getattr(self._mmio_devices[base], "gsi", FIRST_DEVICE_GSI)

    # MMIO exit handling (the hypervisor side of Fig. 4/3) ----------------------------------------

    def _handle_mmio_exit(self, vcpu: VcpuFd, exit: MmioExit) -> None:
        window = exit.addr & ~(MMIO_WINDOW_STRIDE - 1)
        device = self._mmio_devices.get(window)
        if device is None:
            # Not ours: leave unhandled.  A real VMM would abort the
            # guest here, which is why VMSH must intercept accesses to
            # its own windows *before* the hypervisor sees them.
            return
        offset = exit.addr - window
        if exit.is_write:
            device.write_register(offset, exit.data)
        else:
            exit.data = device.read_register(offset)
        exit.handled = True
        exit.handled_by = "hypervisor"

    # Convenience ------------------------------------------------------------------------------------

    @property
    def pid(self) -> int:
        if self.process is None:
            raise KvmError(f"{self.NAME} not launched")
        return self.process.pid

    def device(self, base: int) -> VirtioMmioDevice:
        return self._mmio_devices[base]

    def devices(self) -> List[VirtioMmioDevice]:
        return list(self._mmio_devices.values())
