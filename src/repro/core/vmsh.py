"""VMSH: hypervisor-agnostic attach to a running KVM VM.

The public entry point of the library.  :meth:`Vmsh.attach` performs
the complete pipeline of §4/§5 against a hypervisor *process id* —
never a hypervisor API:

1.  discover the KVM vm/vcpu fds via ``/proc/<pid>/fd``;
2.  ptrace-attach and interrupt the hypervisor;
3.  snoop the gpa->hva memslot table with an eBPF program on
    ``kvm_vm_ioctl``, triggered by an injected no-op ioctl;
4.  read CR3 from vCPU 0 (injected ``KVM_GET_SREGS``);
5.  find the kernel in the KASLR range by walking the page tables;
6.  reconstruct the exported symbol table (all layouts in parallel);
7.  detect the kernel version from ``linux_banner`` and build the
    side-loadable library for that version's ABI;
8.  create the irqfds/sockets *inside* the hypervisor (injected
    ``eventfd2``/``socketpair``/``KVM_IRQFD``/``KVM_SET_IOREGION``)
    and pass the fds back over an injected UNIX socket;
9.  allocate fresh guest memory at the top of the address space
    (injected ``mmap`` + ``KVM_SET_USER_MEMORY_REGION``), write the
    blob, patch its relocations, map it after the kernel image;
10. save registers, point RIP at the library, resume — the guest
    registers VMSH's devices and spawns the overlay;
11. drop privileges.

The pipeline runs as a *transaction* (:mod:`repro.core.txn`): every
change to the hypervisor or guest pushes a compensating action onto an
undo stack, and any failure unwinds the stack so that hypervisor and
guest are bit-identical to their pre-attach state — injected fds
closed, memslots deleted, guest page-table words restored, vCPU
registers put back, interrupted threads resumed, capabilities
re-granted.  :meth:`Vmsh.attach` can additionally retry the whole
pipeline on *transient* injected faults with deterministic exponential
backoff on the simulated clock.  The pipeline is written once, as the
generator :meth:`Vmsh.attach_task`; :meth:`Vmsh.attach` runs it inline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.devices import (
    IoregionfdDispatch,
    MmioDispatch,
    VmshDeviceHost,
    WrapSyscallDispatch,
)
from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation, find_kernel
from repro.core.ksymtab import ParsedKsymtab, parse_ksymtab
from repro.core.libbuild import LibraryPlan, build_library, plan_library
# Importing these registers the guest-side program runtimes.
from repro.core import kernel_lib as _kernel_lib  # noqa: F401
from repro.core import stage2 as _stage2          # noqa: F401
from repro.core.txn import AttachTransaction
from repro.errors import (
    HypervisorNotSupportedError,
    KvmError,
    SideloadError,
    SymbolResolutionError,
    TransientFaultError,
    VmshError,
)
from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS
from repro.guestos.version import KernelVersion
from repro.host.ebpf import MemslotRecord, MemslotSnooper
from repro.host.kernel import HostKernel
from repro.host.process import Process, SocketPair, Thread
from repro.host.procfs import ProcFs
from repro.host.ptrace import PtraceSession, attach as ptrace_attach
from repro.image.builder import build_admin_image
from repro.kvm.vcpu import VcpuFd
from repro.sideload import parse_blob, reloc_slot_offset
from repro.sim.sched import Poll, run_inline
from repro.units import PAGE_SIZE, page_align_up
from repro.virtio.console import Pts
from repro.virtio.memio import BytewiseRemoteAccessor, RemoteProcessAccessor

PT_RESERVE_PAGES = 64

#: The attach pipeline's step names, in order.  Each is entered via
#: :meth:`repro.core.txn.AttachTransaction.step` and doubles as the
#: fault-injection site ``attach.<step>`` (chaos tests iterate this).
ATTACH_STEPS = (
    "discover",
    "ptrace_attach",
    "snoop_memslots",
    "read_sregs",
    "analyse",
    "build_library",
    "create_device_fds",
    "load_library",
    "install_dispatch",
    "hijack",
    "drop_privileges",
)

#: Guest-memory copy paths selectable at attach time.  "vectored" is
#: the sg-batched fast path; "staged" is the pre-§5 bytewise ablation.
COPY_PATHS = {
    "vectored": RemoteProcessAccessor,
    "staged": BytewiseRemoteAccessor,
}

#: virtual ns a retried attach sleeps before its first retry; each
#: further retry doubles it
RETRY_BACKOFF_NS = 100_000


@dataclass
class AttachReport:
    """Diagnostics from one attach."""

    hypervisor_pid: int
    kernel_version: KernelVersion
    ksymtab_layout: str
    symbols_found: int
    kernel_vbase: int
    lib_vaddr: int
    mmio_mode: str
    attach_ns: int
    transport: str = "mmio"
    copy_path: str = "vectored"
    #: whether VMSH's devices offered VIRTIO_RING_F_EVENT_IDX
    event_idx: bool = True
    #: per-accessor copy counters at the end of attach ("gateway" is
    #: VMSH's analysis/loader path, "device" the VirtIO device path)
    accessor_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tlb_hits: int = 0
    tlb_misses: int = 0

    @property
    def tlb_hit_rate(self) -> float:
        total = self.tlb_hits + self.tlb_misses
        return self.tlb_hits / total if total else 0.0


@dataclass
class CommandResult:
    output: str
    latency_ns: int


class VmshConsole:
    """User-facing end of the VMSH console (a pts master)."""

    def __init__(self, pts: Pts, host: HostKernel):
        self._pts = pts
        self._host = host

    def run_command(self, line: str) -> CommandResult:
        """Submit a command line; returns output and round-trip latency.

        :meth:`run_command_task` run inline: with the device host on a
        scheduler and no loop running, the output never arrives and
        this raises :class:`~repro.sim.sched.SchedulerError`.
        """
        return run_inline(self.run_command_task(line), self._host.clock)

    def run_command_task(self, line: str):
        """Cooperative :meth:`run_command` for scheduler tasks.

        Under a running scheduler the round trip spans several events —
        RX irq injection, the guest shell, the TX drain by the device
        service task — so the output arrives a few scheduling turns
        after the write.  Polls until it does.
        """
        start = self._host.clock.now
        self._pts.user_write(line.encode() + b"\n")
        while not self._pts.output:
            yield Poll("console-wait")
        output = self._pts.user_read_all().decode(errors="replace")
        return CommandResult(
            output=output.rstrip("\n"), latency_ns=self._host.clock.now - start
        )


class VmshSession:
    """A live attachment to one VM."""

    def __init__(
        self,
        vmsh: "Vmsh",
        report: AttachReport,
        console: VmshConsole,
        device_host: VmshDeviceHost,
        dispatch: MmioDispatch,
        ptrace_session: Optional[PtraceSession],
        gateway: Optional[GuestMemoryGateway] = None,
        vmsh_fds: Optional[List[int]] = None,
        dropped_caps: Optional[List[str]] = None,
    ):
        self.vmsh = vmsh
        self.report = report
        self.console = console
        self.device_host = device_host
        self.dispatch = dispatch
        self._ptrace = ptrace_session
        self.gateway = gateway
        #: VMSH-side fds owned by this session (device eventfds and, in
        #: ioregionfd mode, the ioregionfd socket) — closed on detach.
        self._vmsh_fds = list(vmsh_fds or [])
        #: capabilities the attach dropped (§4.5), scoped to this
        #: session and re-granted on detach so the same Vmsh process
        #: can attach again.
        self._dropped_caps = list(dropped_caps or [])
        self.detached = False

    def start_service(self, scheduler):
        """Move this session's device servicing onto the scheduler.

        Returns the service :class:`~repro.sim.sched.Task`; detach
        stops it and restores inline servicing.
        """
        return self.device_host.start_service_task(
            scheduler, label=f"vmsh-dev:{self.report.hypervisor_pid}"
        )

    def memory_stats(self) -> Dict[str, Dict[str, int]]:
        """Live copy-path counters (the report holds the attach-time snapshot)."""
        stats = {"device": self.device_host.accessor.stats.as_dict()}
        if self.gateway is not None:
            stats["gateway"] = self.gateway.phys.stats.as_dict()
            metrics = self.gateway.metrics
            stats["tlb"] = {
                "hits": metrics.counter("tlb_hits").value,
                "misses": metrics.counter("tlb_misses").value,
            }
        return stats

    @property
    def mmio_mode(self) -> str:
        return self.report.mmio_mode

    def image_snapshot(self) -> bytes:
        """Current contents of the served file-system image."""
        return self.device_host.backend.snapshot()

    def exec(self, argv) -> "ExecResult":
        """Run a one-shot command in the overlay via the vm-exec device.

        Requires ``attach(..., exec_device=True)``.  ``argv`` may be a
        list of strings or a single command line.  This is
        :meth:`exec_task` run inline.
        """
        return run_inline(self.exec_task(argv), self.vmsh.host.clock)

    def exec_task(self, argv):
        """Cooperative :meth:`exec` for scheduler tasks (a generator)."""
        if self.device_host.exec_device is None:
            raise VmshError("session was attached without exec_device=True")
        if isinstance(argv, str):
            argv = argv.split()
        result = yield from self.device_host.exec_device.submit_task(list(argv))
        return result

    def detach(self) -> None:
        """Release the hypervisor and this session's resources.

        Uninstalls the dispatch (wrap_syscall mode also detaches
        ptrace), closes the session's device eventfds and — in
        ioregionfd mode — the ioregionfd socket, and re-grants the
        capabilities the attach dropped so a follow-up
        :meth:`Vmsh.attach` works.  Idempotent in both modes: a second
        call is a no-op.
        """
        if self.detached:
            return
        self.detached = True
        self.device_host.stop_service_task()
        if isinstance(self.dispatch, WrapSyscallDispatch):
            self.dispatch.uninstall()
        if self._ptrace is not None and self._ptrace.attached:
            self._ptrace.detach()
        # Close the session-owned fds; KVM-side registrations hold
        # their own references, so e.g. closing the ioregionfd socket
        # here severs VMSH's endpoint without corrupting the VM.
        for fd in self._vmsh_fds:
            if fd in self.vmsh.process.fds:
                self.vmsh.process.fds.close(fd)
        self._vmsh_fds.clear()
        for cap in self._dropped_caps:
            self.vmsh.process.grant_capability(cap)
        self._dropped_caps.clear()
        self.vmsh.host.obs.instant(
            "vmsh.detached", track="vmsh", pid=self.report.hypervisor_pid
        )


class Vmsh:
    """The VMSH host program."""

    def __init__(self, host: HostKernel, image: Optional[bytes] = None):
        self.host = host
        self.process: Process = host.spawn_process("vmsh")
        self.procfs = ProcFs(host)
        self._image = image

    @property
    def image(self) -> bytes:
        """The default overlay image: the caller's, else the admin image.

        The admin image (8 MiB) is looked up on first use, so a caller
        that passes its own image to every attach never builds it; the
        first lookup in a process builds it, and every ``Vmsh`` after
        shares that one read-only view.
        """
        if self._image is None:
            self._image = build_admin_image()
        return self._image

    @property
    def _thread(self) -> Thread:
        return self.process.main_thread

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def attach(self, hypervisor_pid: int, **options) -> VmshSession:
        """Attach to the VM of ``hypervisor_pid`` and spawn the overlay.

        :meth:`attach_task` run inline, with the same options; returns
        the :class:`VmshSession`.
        """
        return run_inline(
            self.attach_task(hypervisor_pid, **options), self.host.clock
        )

    def attach_task(
        self,
        hypervisor_pid: int,
        mmio_mode: str = "auto",
        container_pid: int = 0,
        image: Optional[bytes] = None,
        copy_path: str = "vectored",
        transport: str = "mmio",
        exec_device: bool = False,
        seccomp_aware: bool = False,
        retries: int = 0,
        event_idx: bool = True,
    ):
        """The attach pipeline as a generator; its result is the
        :class:`VmshSession`.

        It yields at every :data:`ATTACH_STEPS` boundary, so N
        concurrent attaches spawned with
        ``scheduler.spawn(vmsh.attach_task(...))`` (and their
        fault/retry/backoff paths) interleave deterministically;
        :meth:`attach` runs it inline.

        ``mmio_mode``: ``"auto"``, ``"ioregionfd"`` or ``"wrap_syscall"``
        — how guest accesses to VMSH's registers reach the VMSH process.

        ``transport``: ``"mmio"`` (the paper's implementation and the
        default — Cloud Hypervisor is *unsupported* with it, exactly as
        in Table 1), ``"pci"`` (the VirtIO-PCI/MSI-X extension the
        paper plans as future work), or ``"auto"`` (mmio first, PCI
        fallback).

        ``copy_path`` selects the device's guest-memory copy path (see
        :data:`COPY_PATHS`); ``"staged"`` is the pre-§5 path the copy
        path ablation measures against.

        ``retries``: how many times to re-run the pipeline after a
        *transient* fault (each failed attempt is fully rolled back
        first).  Retry N sleeps ``RETRY_BACKOFF_NS << N`` on the
        simulated clock (a timed yield) — deterministic exponential
        backoff.  Permanent faults and real errors never retry.

        ``event_idx``: whether VMSH's devices offer
        ``VIRTIO_RING_F_EVENT_IDX`` (notification suppression +
        interrupt coalescing).  On by default; the ablation benchmark
        attaches with ``event_idx=False`` to measure what it buys.
        """
        if transport not in ("auto", "mmio", "pci"):
            raise VmshError(f"unknown virtio transport {transport!r}")
        if copy_path not in COPY_PATHS:
            raise VmshError(f"unknown copy path {copy_path!r}")
        if retries < 0:
            raise VmshError("retries must be >= 0")
        attempt = 0
        while True:
            try:
                try:
                    return (yield from self._attach_once_gen(
                        hypervisor_pid, mmio_mode, container_pid,
                        image, copy_path,
                        "mmio" if transport == "auto" else transport,
                        exec_device, seccomp_aware, event_idx,
                    ))
                except HypervisorNotSupportedError:
                    if transport != "auto":
                        raise
                    # MSI-X-only irqchip: the failed mmio attempt has
                    # been rolled back, retry over PCI (§6.2 future work).
                    return (yield from self._attach_once_gen(
                        hypervisor_pid, mmio_mode, container_pid,
                        image, copy_path, "pci", exec_device,
                        seccomp_aware, event_idx,
                    ))
            except TransientFaultError as err:
                # Deterministic exponential backoff, or re-raise.
                backoff = RETRY_BACKOFF_NS << attempt
                if attempt >= retries:
                    raise
                self.host.obs.instant(
                    "attach.retry", track="attach-control",
                    attempt=attempt + 1, site=err.site, backoff_ns=backoff,
                )
                self.host.obs.metrics.scope("attach").counter("retries").inc()
                yield backoff
                attempt += 1

    def _attach_once_gen(
        self,
        hypervisor_pid: int,
        mmio_mode: str,
        container_pid: int,
        image: Optional[bytes],
        copy_path: str,
        transport: str,
        exec_device: bool,
        seccomp_aware: bool,
        event_idx: bool,
    ):
        """Run the pipeline under an :class:`AttachTransaction`.

        Any failure — injected fault, unsupported hypervisor, analysis
        error — rolls back every change made so far, leaving hypervisor
        and guest bit-identical to their pre-attach state, then
        re-raises the original error.  Rollback runs atomically (no
        yields): a half-undone hypervisor is never visible to other
        tasks.
        """
        if mmio_mode not in ("auto", "ioregionfd", "wrap_syscall"):
            raise VmshError(f"unknown mmio mode {mmio_mode!r}")
        # One span track per attach attempt: the per-hub id keeps a
        # retried or re-attached VM on a fresh track (and a fresh
        # metrics subtree) so step spans nest under *their* attempt.
        obs = self.host.obs
        attach_id = obs.next_id("attach")
        track = f"attach:{hypervisor_pid}#{attach_id}"
        txn = AttachTransaction(
            self.host, label=f"attach:{hypervisor_pid}", track=track
        )
        root = obs.spans.begin(
            "attach", track=track, pid=hypervisor_pid,
            transport=transport, attempt=attach_id,
        )
        try:
            session = yield from self._pipeline(
                txn, hypervisor_pid, mmio_mode, container_pid,
                image, copy_path, transport, exec_device, seccomp_aware,
                event_idx, attach_id,
            )
            obs.spans.end(root, status="ok")
            return session
        except BaseException as exc:
            txn.rollback()
            obs.spans.end(root, status=type(exc).__name__)
            raise

    def _pipeline(
        self,
        txn: AttachTransaction,
        hypervisor_pid: int,
        mmio_mode: str,
        container_pid: int,
        image: Optional[bytes],
        copy_path: str,
        transport: str,
        exec_device: bool,
        seccomp_aware: bool,
        event_idx: bool,
        attach_id: int,
    ):
        # Each ``yield`` marks an ATTACH_STEPS boundary: a scheduler
        # task suspends there, letting other attaches and device work
        # run in between; run inline, each resumes at once.
        start_ns = self.host.clock.now
        hv = self.host.process(hypervisor_pid)
        obs = self.host.obs
        session_metrics = obs.metrics.scope(
            "attach", vm=hypervisor_pid, session=attach_id
        )

        # 1. /proc discovery of KVM fds.
        txn.step("discover")
        yield "discover"
        vm_fd, vcpu_fds = self._discover_kvm_fds(hypervisor_pid)

        # 2. ptrace attach + interrupt.
        txn.step("ptrace_attach")
        yield "ptrace_attach"
        session = ptrace_attach(self.host, self.process, hv)
        txn.push(
            "ptrace detach (resumes interrupted threads)",
            lambda: session.detach() if session.attached else None,
        )
        session.seccomp_aware = seccomp_aware
        inject_thread = hv.main_thread
        session.interrupt(inject_thread)

        # 3. eBPF memslot snooping, triggered by an injected ioctl.
        txn.step("snoop_memslots")
        yield "snoop_memslots"
        ioregionfd_supported, records = self._snoop_memslots(
            session, inject_thread, vm_fd
        )

        # 4. CR3 from vCPU 0.
        txn.step("read_sregs")
        yield "read_sregs"
        sregs = session.inject_syscall(
            inject_thread, "ioctl", vcpu_fds[0], "KVM_GET_SREGS"
        )
        arch = self.host.arch
        gateway = GuestMemoryGateway(
            self.host, self._thread, hypervisor_pid, records, arch=arch,
            metrics=session_metrics.scope("gateway"),
        )
        gateway.set_cr3(sregs[arch.pt_root_sreg])

        # 5./6./7. Binary analysis (reads only, nothing to undo), over
        # one page-table view: each table page is read once.
        txn.step("analyse")
        yield "analyse"
        with gateway.page_tables():
            location = find_kernel(gateway)
            ksymtab = parse_ksymtab(gateway, location)
            version = self._detect_version(gateway, ksymtab)
        missing = [
            name for name in REQUIRED_KERNEL_FUNCTIONS
            if name not in ksymtab.symbols
        ]
        if missing:
            raise SymbolResolutionError(missing[0])

        txn.step("build_library")
        yield "build_library"
        plan = plan_library(
            version, container_pid=container_pid,
            transport=transport, exec_device=exec_device, arch=arch,
        )
        blob = build_library(plan)

        # 8. Device fds inside the hypervisor.
        txn.step("create_device_fds")
        yield "create_device_fds"
        mode = self._choose_mode(mmio_mode, ioregionfd_supported)
        device_efds, ioregion_socket, session_fds = self._create_device_fds(
            txn, session, inject_thread, vm_fd, plan, mode
        )

        # 9. Library placement.
        txn.step("load_library")
        yield "load_library"
        blob_gpa, lib_vaddr, gateway = self._load_library(
            txn, session, inject_thread, vm_fd, gateway, location, ksymtab,
            blob, records,
        )

        # Devices + dispatch.
        txn.step("install_dispatch")
        yield "install_dispatch"
        image_bytes = image if image is not None else self.image
        accessor_cls = COPY_PATHS[copy_path]
        accessor = accessor_cls(
            self.host, self._thread, hypervisor_pid, gateway.translator,
            session_metrics.scope("device"),
        )
        device_host = VmshDeviceHost(
            costs=self.host.costs,
            accessor=accessor,
            plan=plan,
            image_bytes=image_bytes,
            irqs=[self._irq_signaller(efd) for efd in device_efds],
            event_idx=event_idx,
        )
        dispatch: MmioDispatch
        if mode == "ioregionfd":
            assert ioregion_socket is not None
            dispatch = IoregionfdDispatch(device_host, ioregion_socket)
        else:
            vcpus_by_tid = self._map_vcpu_threads(hv, vcpu_fds)
            dispatch = WrapSyscallDispatch(
                self.host, session, device_host, vcpus_by_tid
            )
        dispatch.install()
        txn.push("uninstall MMIO dispatch", dispatch.uninstall)

        # 10. Trampoline: save registers, divert RIP, resume.
        txn.step("hijack")
        yield "hijack"
        self._hijack_and_run(
            txn, session, inject_thread, hv, vcpu_fds[0], blob, blob_gpa,
            lib_vaddr, gateway,
        )

        # 11. Privilege drop (§4.5), scoped to the session: detach (or
        # rollback) re-grants exactly what was held before.
        txn.step("drop_privileges")
        yield "drop_privileges"
        dropped_caps: List[str] = []
        for cap in ("CAP_BPF", "CAP_SYS_ADMIN"):
            if self.process.has_capability(cap):
                self.process.drop_capability(cap)
                dropped_caps.append(cap)
                txn.push(
                    f"re-grant {cap}",
                    lambda cap=cap: self.process.grant_capability(cap),
                )

        if mode == "ioregionfd":
            session.detach()
            ptrace_ref = None
        else:
            ptrace_ref = session

        txn.commit()
        report = AttachReport(
            hypervisor_pid=hypervisor_pid,
            kernel_version=version,
            ksymtab_layout=ksymtab.layout,
            symbols_found=len(ksymtab.symbols),
            kernel_vbase=location.vbase,
            lib_vaddr=lib_vaddr,
            mmio_mode=mode,
            attach_ns=self.host.clock.now - start_ns,
            transport=transport,
            copy_path=copy_path,
            event_idx=event_idx,
            accessor_stats={
                "gateway": gateway.phys.stats.as_dict(),
                "device": accessor.stats.as_dict(),
            },
            tlb_hits=gateway.metrics.counter("tlb_hits").value,
            tlb_misses=gateway.metrics.counter("tlb_misses").value,
        )
        session_metrics.gauge("attach_ns").set(report.attach_ns)
        obs.metrics.scope("attach").histogram("latency_ns").observe(
            report.attach_ns
        )
        self.host.obs.instant(
            "vmsh.attached", track="vmsh", pid=hypervisor_pid, mode=mode,
            version=str(version), transport=transport,
        )
        return VmshSession(
            vmsh=self,
            report=report,
            console=VmshConsole(device_host.pts, self.host),
            device_host=device_host,
            dispatch=dispatch,
            ptrace_session=ptrace_ref,
            gateway=gateway,
            vmsh_fds=session_fds,
            dropped_caps=dropped_caps,
        )

    # ------------------------------------------------------------------
    # Pipeline steps
    # ------------------------------------------------------------------

    def _discover_kvm_fds(self, pid: int) -> Tuple[int, List[int]]:
        links = self.procfs.fd_links(pid)
        vm_fd = None
        vcpus: List[Tuple[int, int]] = []
        for fd, link in links.items():
            if link == "anon_inode:kvm-vm":
                vm_fd = fd
            elif link.startswith("anon_inode:kvm-vcpu:"):
                vcpus.append((int(link.rsplit(":", 1)[1]), fd))
        if vm_fd is None or not vcpus:
            raise SideloadError(
                f"process {pid} holds no KVM VM (is it a KVM hypervisor?)"
            )
        vcpus.sort()
        return vm_fd, [fd for _, fd in vcpus]

    def _snoop_memslots(
        self, session: PtraceSession, thread: Thread, vm_fd: int
    ) -> Tuple[bool, List[MemslotRecord]]:
        snooper = MemslotSnooper(self.host, self.process)
        snooper.attach()
        try:
            supported = session.inject_syscall(
                thread, "ioctl", vm_fd, "KVM_CHECK_EXTENSION", "KVM_CAP_IOREGIONFD"
            )
            records = snooper.read_map()
        finally:
            snooper.detach()
        if not records:
            raise SideloadError("memslot snooper captured nothing")
        return bool(supported), records

    def _detect_version(
        self, gateway: GuestMemoryGateway, ksymtab: ParsedKsymtab
    ) -> KernelVersion:
        banner_vaddr = ksymtab.require("linux_banner")
        banner = gateway.read_cstring(banner_vaddr)
        if not banner.startswith("Linux version "):
            raise SideloadError(f"implausible linux_banner: {banner!r}")
        token = banner.split()[2]          # e.g. "5.10.0"
        return KernelVersion.parse(".".join(token.split(".")[:2]))

    def _choose_mode(self, requested: str, ioregionfd_supported: bool) -> str:
        if requested == "auto":
            return "ioregionfd" if ioregionfd_supported else "wrap_syscall"
        if requested == "ioregionfd" and not ioregionfd_supported:
            raise VmshError("host kernel lacks the ioregionfd patch")
        return requested

    def _create_device_fds(
        self,
        txn: AttachTransaction,
        session: PtraceSession,
        thread: Thread,
        vm_fd: int,
        plan: LibraryPlan,
        mode: str,
    ) -> Tuple[List[int], Optional[SocketPair], List[int]]:
        """Create irqfds (and the ioregionfd socket) in the hypervisor
        and pass them back over an injected UNIX socket.

        Returns ``(device_efds, ioregion_socket, session_fds)``:
        ``device_efds`` holds one eventfd per planned device, in plan
        order, ``ioregion_socket`` is ``None`` outside ioregionfd mode,
        ``session_fds`` are all VMSH-side fds the session owns (for
        detach).

        Every injected fd and every KVM registration pushes a
        compensating action onto ``txn``.  Before returning, the
        hypervisor-side fds are closed again (KVM's own references keep
        the eventfds and the ioregion socket alive), so a completed
        attach leaves the hypervisor's fd table exactly as found.
        """
        hv = session.tracee
        hv_fds: List[int] = []
        hv_fd_entries = {}

        def track_hv_fd(fd: int) -> None:
            hv_fds.append(fd)
            hv_fd_entries[fd] = txn.push(
                f"close injected hypervisor fd {fd}",
                lambda fd=fd: session.inject_syscall(thread, "close", fd),
            )

        efds_hv = []
        for _ in plan.devices:
            efds_hv.append(session.inject_syscall(thread, "eventfd2"))
            track_hv_fd(efds_hv[-1])
        for device, efd_hv in zip(plan.devices, efds_hv):
            if plan.transport == "pci":
                # MSI-routed irqfds: no GSI pins needed (the extension).
                request, route = "KVM_IRQFD_MSI", {"msi_message": device.msi}
                label = f"MSI irqfd (message {device.msi})"
            else:
                # Pin-based irqfds — this is where Cloud Hypervisor's
                # MSI-X-only model fails (Table 1).
                request, route = "KVM_IRQFD", {"gsi": device.gsi}
                label = f"irqfd (GSI {device.gsi})"
            try:
                session.inject_syscall(
                    thread, "ioctl", vm_fd, request, {**route, "eventfd": efd_hv}
                )
            except KvmError as exc:
                raise HypervisorNotSupportedError(
                    f"cannot route VMSH interrupts on this hypervisor: {exc}"
                ) from exc
            txn.push(
                f"deassign {label}",
                lambda request=request, route=route: session.inject_syscall(
                    thread, "ioctl", vm_fd, request, {**route, "deassign": True}
                ),
            )

        # Injected UNIX socket for fd passing (§5): one end stays in
        # the hypervisor, VMSH connects to the other.
        sock_a, sock_b = session.inject_syscall(thread, "socketpair")
        track_hv_fd(sock_a)
        track_hv_fd(sock_b)
        vmsh_sock_fd = self.process.fds.install(hv.fds.get(sock_b))
        vmsh_sock_entry = txn.push(
            "close VMSH handshake socket",
            lambda: self.host.syscall(self._thread, "close", vmsh_sock_fd),
        )

        ioregion_socket: Optional[SocketPair] = None
        attached = list(efds_hv)
        if mode == "ioregionfd":
            io_a, io_b = session.inject_syscall(thread, "socketpair")
            track_hv_fd(io_a)
            track_hv_fd(io_b)
            # The devices' register windows, plus on pci the ECAM
            # config pages of their device slots.
            for (gpa, size), window in zip(plan.regions(), ("MMIO", "ECAM")):
                session.inject_syscall(
                    thread, "ioctl", vm_fd, "KVM_SET_IOREGION",
                    {"gpa": gpa, "size": size, "socket": io_a},
                )
                txn.push(
                    f"remove ioregion ({window} window)",
                    lambda gpa=gpa, size=size: session.inject_syscall(
                        thread, "ioctl", vm_fd, "KVM_SET_IOREGION",
                        {"gpa": gpa, "size": size, "remove": True},
                    ),
                )
            attached.append(io_b)

        session.inject_syscall(thread, "sendmsg", sock_a, "vmsh-fds", attached)
        payload, fds = self.host.syscall(self._thread, "recvmsg", vmsh_sock_fd)
        if payload != "vmsh-fds":
            raise SideloadError("fd-passing handshake failed")
        for fd in fds:
            txn.push(
                f"close VMSH device fd {fd}",
                lambda fd=fd: self.host.syscall(self._thread, "close", fd),
            )
        device_efds = fds[: len(plan.devices)]
        if mode == "ioregionfd":
            socket_obj = self.process.fds.get(fds[-1])
            assert isinstance(socket_obj, SocketPair)
            ioregion_socket = socket_obj

        # Housekeeping: KVM (and VMSH's fd table) hold their own
        # references now, so close the injected hypervisor-side fds —
        # the hypervisor's fd table ends bit-identical to pre-attach —
        # and discharge their undo entries.
        for fd in hv_fds:
            session.inject_syscall(thread, "close", fd)
            txn.discharge(hv_fd_entries[fd])
        self.host.syscall(self._thread, "close", vmsh_sock_fd)
        txn.discharge(vmsh_sock_entry)
        return device_efds, ioregion_socket, fds

    def _irq_signaller(self, eventfd_fd: int):
        host, thread = self.host, self._thread

        def signal() -> None:
            host.syscall(thread, "write", eventfd_fd)

        return signal

    def _load_library(
        self,
        txn: AttachTransaction,
        session: PtraceSession,
        thread: Thread,
        vm_fd: int,
        gateway: GuestMemoryGateway,
        location: KernelLocation,
        ksymtab: ParsedKsymtab,
        blob: bytes,
        records: List[MemslotRecord],
    ) -> Tuple[int, int, GuestMemoryGateway]:
        # Fresh guest physical memory at the top of the address space
        # (hypervisors allocate low-to-high, §4.2).
        region_size = page_align_up(len(blob)) + PT_RESERVE_PAGES * PAGE_SIZE
        top_gpa = page_align_up(max(r.gpa + r.size for r in records))
        blob_gpa = max(top_gpa, 0x1_0000_0000)  # clear of the MMIO window

        hva = session.inject_syscall(thread, "mmap", region_size, "vmsh-lib")
        txn.push(
            "munmap library region",
            lambda: session.inject_syscall(thread, "munmap", hva),
        )
        free_slot = max(r.slot for r in records) + 1
        session.inject_syscall(
            thread, "ioctl", vm_fd, "KVM_SET_USER_MEMORY_REGION",
            {"slot": free_slot, "gpa": blob_gpa, "size": region_size, "hva": hva},
        )
        txn.push(
            f"delete library memslot {free_slot}",
            lambda: session.inject_syscall(
                thread, "ioctl", vm_fd, "KVM_SET_USER_MEMORY_REGION",
                {"slot": free_slot, "gpa": blob_gpa, "size": 0, "hva": 0},
            ),
        )
        new_records = list(records) + [
            MemslotRecord(slot=free_slot, gpa=blob_gpa, size=region_size, hva=hva)
        ]
        gateway.refresh_memslots(new_records)

        # Upload the blob and patch its relocation slots.
        gateway.phys.write(blob_gpa, blob)
        for index, name in enumerate(REQUIRED_KERNEL_FUNCTIONS):
            vaddr = ksymtab.require(name)
            slot_off = reloc_slot_offset(blob, index)
            gateway.phys.write(blob_gpa + slot_off, struct.pack("<Q", vaddr))

        # Map the library right after the kernel image (§4.2, Fig. 3).
        # map_range mutates *pre-existing* guest page-table pages (the
        # PML4 under CR3 lives in original guest RAM).  The page-table
        # view journals the old value of every such word it flushes,
        # and rollback writes them back: bit-identical restoration of
        # the guest's page tables.  New tables come from the reserve
        # after the blob, fresh memory that needs neither a read nor a
        # journal.  The undo is pushed after the memslot-delete undo so
        # LIFO rollback restores the words while the slot still resolves.
        lib_vaddr = page_align_up(location.vend)
        reserve = range(blob_gpa + page_align_up(len(blob)), blob_gpa + region_size)
        pt_alloc_cursor = [reserve.start]

        def alloc_pt_page() -> int:
            gpa = pt_alloc_cursor[0]
            pt_alloc_cursor[0] += PAGE_SIZE
            if gpa >= reserve.stop:
                raise SideloadError("page-table reserve exhausted")
            return gpa

        with gateway.page_tables(fresh=reserve) as view:
            txn.push("restore guest page-table words", view.undo)
            builder = gateway.arch.builder(
                view.read_u64, view.write_u64, alloc_pt_page, view.write_run
            )
            builder.map_range(
                gateway.cr3, lib_vaddr, blob_gpa, page_align_up(len(blob))
            )
        return blob_gpa, lib_vaddr, gateway

    def _map_vcpu_threads(
        self, hv: Process, vcpu_fds: List[int]
    ) -> Dict[int, VcpuFd]:
        mapping: Dict[int, VcpuFd] = {}
        for fd in vcpu_fds:
            vcpu = hv.fds.get(fd)
            assert isinstance(vcpu, VcpuFd)
            if vcpu.run_thread is not None:
                mapping[vcpu.run_thread.tid] = vcpu
        return mapping

    def _hijack_and_run(
        self,
        txn: AttachTransaction,
        session: PtraceSession,
        thread: Thread,
        hv: Process,
        vcpu_fd: int,
        blob: bytes,
        blob_gpa: int,
        lib_vaddr: int,
        gateway: GuestMemoryGateway,
    ) -> None:
        # Save the interrupted context into the trampoline scratch area.
        arch = gateway.arch
        orig_regs = session.inject_syscall(thread, "ioctl", vcpu_fd, "KVM_GET_REGS")
        parsed = parse_blob(lambda off, length: bytes(blob[off : off + length]))
        if parsed.scratch_size < arch.scratch_size:
            raise SideloadError(
                f"library scratch area ({parsed.scratch_size} B) cannot hold "
                f"the {arch.name} register file ({arch.scratch_size} B)"
            )
        gateway.phys.write(
            blob_gpa + parsed.scratch_offset, arch.pack_context(orig_regs)
        )

        # Divert the instruction pointer into the library.
        new_regs = dict(orig_regs)
        new_regs[arch.ip_register] = lib_vaddr + parsed.entry_offset
        session.inject_syscall(thread, "ioctl", vcpu_fd, "KVM_SET_REGS", new_regs)
        txn.push(
            "restore saved vCPU registers",
            lambda: session.inject_syscall(
                thread, "ioctl", vcpu_fd, "KVM_SET_REGS", dict(orig_regs)
            ),
        )
        session.resume(thread)

        # The hypervisor re-enters KVM_RUN; the guest executes the
        # library, which registers devices, spawns stage 2 and finally
        # restores the saved context.
        vcpu = hv.fds.get(vcpu_fd)
        assert isinstance(vcpu, VcpuFd)
        run_thread = vcpu.run_thread if vcpu.run_thread is not None else thread
        result = self.host.syscall(run_thread, "ioctl", vcpu_fd, "KVM_RUN")
        if result != "vmsh-lib-done":
            raise SideloadError(f"library execution returned {result!r}")
        restored = self.host.syscall(run_thread, "ioctl", vcpu_fd, "KVM_GET_REGS")
        if restored[arch.ip_register] != orig_regs[arch.ip_register]:
            raise SideloadError("trampoline failed to restore the guest context")
