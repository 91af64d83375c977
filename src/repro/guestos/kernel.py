"""The simulated guest Linux kernel.

This object is the "guest side" of everything in the paper:

* it boots from a :class:`~repro.guestos.loader.KernelImage` placed at
  a KASLR-randomised base, with real page tables and a real exported
  symbol table in guest memory;
* it implements the twelve exported kernel functions the side-loaded
  library calls (§5), including the per-version ABI variants (§6.2);
* it is the vCPU "runtime": when VMSH rewrites RIP, execution lands in
  :meth:`GuestKernel.execute_at`, which parses whatever bytes are
  actually mapped there — a correct side-load runs the library, a buggy
  one panics the guest;
* it hosts the VFS, mount namespaces, page cache, virtio drivers,
  processes and ttys that the overlay (§4.4) and the evaluation
  workloads exercise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import GuestError, GuestPanicError, VfsError
from repro.guestos.blockcore import BlockDevice
from repro.guestos.console import GuestShell
from repro.guestos.fs import Filesystem
from repro.guestos.kfunctions import (
    PlatformDeviceInfo,
    PosRef,
    REQUIRED_KERNEL_FUNCTIONS,
    UmhArgs,
)
from repro.guestos.loader import KERNEL_IMAGE_SIZE, KernelImage, build_kernel_image
from repro.guestos.pagecache import PageCache
from repro.guestos.process import (
    Credentials,
    GuestProcess,
    GuestProcessTable,
)
from repro.guestos.version import KernelVersion
from repro.guestos.vfs import (
    MountNamespace,
    OpenFile,
    Vfs,
    normalize,
)
from repro.kvm.api import GuestPhysMemory, VmFd
from repro.kvm.vcpu import VcpuFd
from repro.mem.pagetable import PageTableView
from repro.sideload import parse_blob
from repro.sim.rng import stream
from repro.units import MiB, PAGE_SIZE

#: the boot allocator's first page: it skips the legacy/BIOS hole
FIRST_USABLE_GPA = 1 * MiB

#: Registry of executable "programs": SELF program ids and userspace
#: binary personalities.  Populated by repro.core (kernel library,
#: stage-2) and by this module (shell, init).
EXEC_PROGRAMS: Dict[str, Any] = {}


def register_program(name: str, program: Any) -> None:
    EXEC_PROGRAMS[name] = program


@dataclass
class GuestConfig:
    """Boot-time configuration of a guest."""

    version: KernelVersion = KernelVersion(5, 10)
    rng_label: str = "guest"
    #: virtio-mmio windows provided by the hypervisor: (base_gpa, gsi)
    mmio_devices: Tuple[Tuple[int, int], ...] = ()
    #: initial root filesystem contents: path -> bytes (or None = dir)
    root_files: Dict[str, Optional[bytes]] = field(default_factory=dict)
    #: queue pairs the guest's net driver asks for (clamped to what the
    #: device offers; MQ is only negotiated when this is > 1)
    nic_queue_pairs: int = 1


DEFAULT_ROOT_LAYOUT: Dict[str, Optional[bytes]] = {
    "/bin": None,
    "/sbin": None,
    "/usr/bin": None,
    "/etc": None,
    "/dev": None,
    "/proc": None,
    "/tmp": None,
    "/var": None,
    "/root": None,
    "/mnt": None,
    "/bin/sh": b"#!SIMELF:shell\n",
    "/etc/hostname": b"guest\n",
    "/etc/passwd": b"root:x:0:0:root:/root:/bin/sh\n",
    "/etc/shadow": b"root:$5$oldhash:19000:0:99999:7:::\n",
}


class GuestKernel:
    """The guest operating system."""

    def __init__(self, vm: VmFd, config: Optional[GuestConfig] = None):
        self.vm = vm
        self.arch = vm.arch
        self.config = config if config is not None else GuestConfig()
        self.version = self.config.version
        self.memory: GuestPhysMemory = vm.guest_memory()
        self.costs = vm.kernel.costs
        self.klog: List[str] = []

        self._phys_bump = FIRST_USABLE_GPA
        self._ram_end = max(
            (s.gpa + s.size for s in vm.memslots()), default=FIRST_USABLE_GPA
        )

        self.image: Optional[KernelImage] = None
        self.cr3 = 0
        self.idle_vaddr = 0
        self._kfunc_by_vaddr: Dict[int, Tuple[str, Callable]] = {}

        self.page_cache = PageCache(self.costs)
        self.root_ns = MountNamespace()
        self.processes = GuestProcessTable()
        self.init_process: Optional[GuestProcess] = None
        self.kernel_vfs: Optional[Vfs] = None

        self.block_devices: Dict[str, BlockDevice] = {}
        self.net_devices: Dict[str, Any] = {}         # name -> GuestVirtioNic
        self.platform_devices: Dict[int, Any] = {}
        self._pdev_counter = itertools.count(1)
        self.vmsh_console: Optional[Any] = None       # GuestVirtioConsole
        self.vmsh_block: Optional[BlockDevice] = None
        self.vmsh_exec: Optional[Any] = None          # GuestVmExecDriver

        self._irq_handlers: Dict[int, Callable[[int], None]] = {}
        self._kernel_files: Dict[int, OpenFile] = {}
        self._kfile_counter = itertools.count(3)
        self.kthread_entries: Dict[str, Callable[[], None]] = {}
        self._kthreads: Dict[int, Tuple[GuestProcess, Callable[[], None]]] = {}
        self.booted = False
        self.panicked: Optional[str] = None

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def boot(self) -> None:
        """Bring the guest up: image, paging, rootfs, init, devices."""
        if self.booted:
            raise GuestError("guest already booted")
        rng = stream(f"kaslr:{self.config.rng_label}")
        slot = rng.randrange(self.arch.kaslr_slots - 1)
        vbase = self.arch.kaslr_slot_to_vaddr(slot)
        pbase = self.alloc_guest_pages(KERNEL_IMAGE_SIZE // PAGE_SIZE)

        self.image = build_kernel_image(
            self.version, vbase, pbase, self._write_phys,
            ksymtab_layout=self.arch.ksymtab_layout(self.version),
        )
        self.idle_vaddr = self.image.idle_vaddr

        # Boot builds its tables as an attach does, through a page-table
        # view: every table comes from RAM the bump allocator has not
        # handed out yet, which reads as zero, and each table page
        # reaches guest memory in one write when the view flushes.
        view = PageTableView(
            self.memory, self.arch.walker, range(self._phys_bump, self._ram_end)
        )
        builder = self.arch.builder(
            view.read_u64, view.write_u64, self._alloc_table_page, view.write_run
        )
        # ``cr3`` holds the *register-encoded* root (identity on x86/arm64,
        # MODE|PPN satp form on riscv) — exactly what the vCPU sreg carries
        # and what walkers/builders take as their root argument.
        self.cr3 = self.arch.encode_pt_root(builder.new_root())
        builder.map_range(self.cr3, vbase, pbase, KERNEL_IMAGE_SIZE)
        view.flush()

        for vcpu in self.vm.vcpus:
            vcpu.sregs[self.arch.pt_root_sreg] = self.cr3
            vcpu.regs[self.arch.ip_register] = self.idle_vaddr
            vcpu.guest_runtime = self
        self.vm.guest_irq_sink = self.handle_irq

        self._bind_kernel_functions()
        self._mount_root()
        self._spawn_init()
        self._probe_boot_devices()
        self.booted = True
        self.printk(f"Linux version {self.version} booted (KASLR slot {slot})")

    @property
    def boot_vcpu(self) -> VcpuFd:
        return self.vm.vcpus[0]

    def _write_phys(self, paddr: int, data: bytes) -> None:
        self.memory.write(paddr, data)

    def _alloc_table_page(self) -> int:
        return self.alloc_guest_pages(1)

    def alloc_guest_pages(self, count: int) -> int:
        """Boot allocator: bump-allocate guest physical pages."""
        if count <= 0:
            raise GuestError("page allocation count must be positive")
        base = self._phys_bump
        self._phys_bump += count * PAGE_SIZE
        if self._phys_bump > self._ram_end:
            raise GuestError("guest out of physical memory")
        return base

    def _mount_root(self) -> None:
        """Mount a fresh root fs holding ``DEFAULT_ROOT_LAYOUT`` and the
        config's ``root_files``, in path order.

        The tree is built by inode, with the :class:`Filesystem` calls
        ``Vfs.makedirs`` and ``Vfs.write_file`` make on it, in their
        order: a ``mkdir`` per missing directory, then ``create``,
        ``truncate`` and ``write`` per file.  So the inodes, timestamps
        and charges are the VFS's, and so is the ``VfsError`` code a
        malformed path raises.
        """
        root_fs = Filesystem("ext4", costs=self.costs, label="rootfs")
        vfs = Vfs(self.root_ns)
        vfs.mount(root_fs, "/")
        layout = dict(DEFAULT_ROOT_LAYOUT)
        layout.update(self.config.root_files)
        root = root_fs.inode(root_fs.root_ino)
        for path in sorted(layout):
            content = layout[path]
            names = [name for name in normalize(path).split("/") if name]
            # A path ending in "/" or "/." names the directory before it.
            leaf = content is not None and path.rpartition("/")[2] not in ("", ".")
            nodes = [root]                  # the walk's path
            for depth, name in enumerate(names, 1):
                if name == "..":            # as the VFS walk: "/.." is "/"
                    if len(nodes) > 1:
                        nodes.pop()
                    continue
                parent = nodes[-1]
                if not parent.is_dir:
                    raise VfsError("ENOTDIR", path)
                ino = parent.entries.get(name)
                if ino is not None:
                    nodes.append(root_fs.inode(ino))
                elif leaf and depth == len(names):
                    nodes.append(root_fs.create(parent.no, name))
                else:
                    nodes.append(root_fs.mkdir(parent.no, name))
            if content is not None:
                if nodes[-1].is_dir:
                    raise VfsError("EISDIR", path)
                root_fs.truncate(nodes[-1].no, 0)
                root_fs.write(nodes[-1].no, 0, content)
        self.kernel_vfs = vfs

    def _spawn_init(self) -> None:
        self.init_process = self.processes.add(
            GuestProcess("init", self.root_ns, kind="init", pid=1)
        )

    def _probe_boot_devices(self) -> None:
        from repro.virtio import constants as C
        from repro.virtio.blk import GuestVirtioBlkDisk
        from repro.virtio.mmio import GuestVirtioTransport
        from repro.virtio.net import GuestVirtioNic

        disk_index = 0
        nic_index = 0
        for base, gsi in self.config.mmio_devices:
            transport = GuestVirtioTransport(self, base, gsi)
            device_id = transport.probe()
            if device_id is None:
                continue
            if device_id == C.DEVICE_ID_BLOCK:
                name = f"vd{chr(ord('a') + disk_index)}"
                disk = GuestVirtioBlkDisk(self, transport, name)
                self.block_devices[name] = disk
                disk_index += 1
                self.printk(f"virtio-blk {name} at {base:#x} (irq {gsi})")
            elif device_id == C.DEVICE_ID_NET:
                name = f"eth{nic_index}"
                nic = GuestVirtioNic(
                    self, transport, name,
                    queue_pairs=self.config.nic_queue_pairs,
                )
                self.net_devices[name] = nic
                nic_index += 1
                self.printk(
                    f"virtio-net {name} at {base:#x} (irq {gsi}, "
                    f"{nic.queue_pairs} queue pair(s))"
                )

    # ------------------------------------------------------------------
    # Virtual memory helpers (guest's own view)
    # ------------------------------------------------------------------

    def walker(self):
        """Page-table walker for this guest's architecture."""
        return self.arch.walker(self.memory.read_u64)

    def read_virt(self, vaddr: int, length: int) -> bytes:
        walker = self.walker()
        out = bytearray()
        pos = 0
        while pos < length:
            cur = vaddr + pos
            translation = walker.translate(self.cr3, cur)
            in_page = cur & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - in_page)
            out += self.memory.read(translation.paddr, chunk)
            pos += chunk
        return bytes(out)

    def write_virt(self, vaddr: int, data: bytes) -> None:
        walker = self.walker()
        pos = 0
        while pos < len(data):
            cur = vaddr + pos
            translation = walker.translate(self.cr3, cur)
            in_page = cur & (PAGE_SIZE - 1)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            self.memory.write(translation.paddr, data[pos : pos + chunk])
            pos += chunk

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------

    def register_irq(self, gsi: int, handler: Callable[[int], None]) -> None:
        self._irq_handlers[gsi] = handler

    def handle_irq(self, gsi: int) -> None:
        handler = self._irq_handlers.get(gsi)
        if handler is not None:
            handler(gsi)
        # Unclaimed interrupts are legal (spurious) and ignored.

    # ------------------------------------------------------------------
    # The vCPU runtime: execution diverted by VMSH lands here
    # ------------------------------------------------------------------

    def execute_at(self, rip: int, vcpu: VcpuFd) -> Any:
        if self.panicked is not None:
            raise GuestPanicError(f"guest previously panicked: {self.panicked}")
        if rip == self.idle_vaddr:
            return "idle"
        # Something redirected execution.  Read the bytes actually
        # mapped at RIP; only a valid SELF blob is runnable.
        try:
            blob = parse_blob(lambda off, length: self.read_virt(rip + off, length))
        except Exception as exc:
            self.panicked = f"jump to unmapped/garbage address {rip:#x}: {exc}"
            raise GuestPanicError(self.panicked) from exc
        program = EXEC_PROGRAMS.get(blob.program_id)
        if program is None:
            self.panicked = f"no runtime for program id {blob.program_id!r}"
            raise GuestPanicError(self.panicked)
        self.costs.obs.instant(
            "guest.execute_blob", track="guest", program=blob.program_id, rip=hex(rip)
        )
        return program.execute(self, blob, blob_vaddr=rip, vcpu=vcpu)

    def panic(self, reason: str) -> None:
        self.panicked = reason
        raise GuestPanicError(reason)

    # ------------------------------------------------------------------
    # printk and the kernel log
    # ------------------------------------------------------------------

    def printk(self, message: str) -> int:
        self.klog.append(message)
        self.costs.obs.instant("guest.printk", track="guest", msg=message)
        return len(message)

    # ------------------------------------------------------------------
    # The twelve exported kernel functions (called via resolved vaddrs)
    # ------------------------------------------------------------------

    def _bind_kernel_functions(self) -> None:
        assert self.image is not None
        implementations: Dict[str, Callable] = {
            "platform_device_register_full": self._k_platform_device_register_full,
            "put_device": self._k_put_device,
            "filp_open": self._k_filp_open,
            "filp_close": self._k_filp_close,
            "kernel_read": self._k_kernel_read,
            "kernel_write": self._k_kernel_write,
            "kthread_create_on_node": self._k_kthread_create_on_node,
            "wake_up_process": self._k_wake_up_process,
            "call_usermodehelper": self._k_call_usermodehelper,
            "kernel_wait4": self._k_kernel_wait4,
            "do_exit": self._k_do_exit,
            "printk": self._k_printk,
        }
        missing = set(REQUIRED_KERNEL_FUNCTIONS) - set(implementations)
        if missing:
            raise GuestError(f"kernel functions without implementation: {missing}")
        for name, impl in implementations.items():
            vaddr = self.image.symbols[name]
            self._kfunc_by_vaddr[vaddr] = (name, impl)

    def call_kfunc(self, vaddr: int, *args: Any) -> Any:
        """Call a kernel function by virtual address (what the library
        does through its relocated pointers)."""
        entry = self._kfunc_by_vaddr.get(vaddr)
        if entry is None:
            self.panic(f"call to non-function address {vaddr:#x}")
        name, impl = entry  # type: ignore[misc]
        try:
            return impl(*args)
        except GuestPanicError:
            raise
        except (TypeError, ValueError) as exc:
            self.panic(f"{name}: bad arguments ({exc})")

    # -- driver registration (2) -----------------------------------------------------

    def _k_platform_device_register_full(self, info_bytes: bytes) -> int:
        from repro.guestos.kfunctions import DEVICE_KIND_VIRTIO_PCI
        from repro.virtio.mmio import GuestVirtioTransport

        info = PlatformDeviceInfo.unpack(info_bytes, self.version)
        if info.kind == DEVICE_KIND_VIRTIO_PCI:
            return self._register_virtio_pci(info)
        transport = GuestVirtioTransport(self, info.mmio_base, info.irq)
        device_id = transport.probe()
        if device_id is None:
            self.panic(f"no virtio device behind MMIO window {info.mmio_base:#x}")
        return self._register_virtio_driver(
            device_id, transport, f"mmio window {info.mmio_base:#x}"
        )

    def _register_virtio_pci(self, info: PlatformDeviceInfo) -> int:
        """The VirtIO-PCI path (MSI-X interrupts, no GSI pins)."""
        from repro.kvm.api import VmFd
        from repro.virtio.mmio import GuestVirtioTransport
        from repro.virtio.pci import GuestPciProbe, address_slot

        slot = address_slot(info.mmio_base)
        probe = GuestPciProbe(self)
        function = probe.probe_slot(slot)
        if function is None:
            self.panic(f"no virtio-pci function in ECAM slot {slot}")
        probe.enable(slot)
        vector = VmFd.MSI_VECTOR_BASE + function["msi_message"]
        transport = GuestVirtioTransport(self, function["bar0"], vector)
        return self._register_virtio_driver(
            function["virtio_id"], transport, f"pci slot {slot} (MSI-X)"
        )

    def _register_virtio_driver(self, device_id: int, transport, where: str) -> int:
        from repro.virtio import constants as C
        from repro.virtio.blk import GuestVirtioBlkDisk
        from repro.virtio.console import GuestVirtioConsole
        from repro.virtio.vmexec import DEVICE_ID_VMEXEC, GuestVmExecDriver

        handle = next(self._pdev_counter)
        if device_id == DEVICE_ID_VMEXEC:
            exec_driver = GuestVmExecDriver(self, transport)
            self.vmsh_exec = exec_driver
            self.platform_devices[handle] = exec_driver
            self.printk(f"vmsh: exec device at {where}")
        elif device_id == C.DEVICE_ID_CONSOLE:
            console = GuestVirtioConsole(self, transport, name="vmsh-hvc")
            self.vmsh_console = console
            self.platform_devices[handle] = console
            self.printk(f"vmsh: console device at {where}")
        elif device_id == C.DEVICE_ID_BLOCK:
            disk = GuestVirtioBlkDisk(self, transport, name="vmshblk0")
            self.vmsh_block = disk
            self.block_devices[disk.name] = disk
            self.platform_devices[handle] = disk
            self.printk(f"vmsh: block device at {where}")
        else:
            self.panic(f"unknown virtio device id {device_id}")
        return handle

    def _k_put_device(self, handle: int) -> int:
        device = self.platform_devices.pop(handle, None)
        if device is None:
            self.panic(f"put_device on unknown handle {handle}")
        if device is self.vmsh_console:
            self.vmsh_console = None
        if device is self.vmsh_block:
            self.block_devices.pop(getattr(device, "name", ""), None)
            self.vmsh_block = None
        return 0

    # -- file IO (4) ------------------------------------------------------------------------

    def _k_filp_open(self, path: str, flags: Any, mode: int = 0o600) -> int:
        assert self.kernel_vfs is not None
        handle = self.kernel_vfs.open(path, set(flags), mode=mode)
        number = next(self._kfile_counter)
        self._kernel_files[number] = handle
        return number

    def _k_filp_close(self, file_no: int) -> int:
        handle = self._kernel_files.pop(file_no, None)
        if handle is None:
            self.panic(f"filp_close on unknown file {file_no}")
        assert self.kernel_vfs is not None
        self.kernel_vfs.close(handle)  # type: ignore[arg-type]
        return 0

    def _kernel_file(self, file_no: int) -> OpenFile:
        handle = self._kernel_files.get(file_no)
        if handle is None:
            self.panic(f"access to unknown kernel file {file_no}")
        return handle  # type: ignore[return-value]

    def _k_kernel_read(self, *args: Any) -> bytes:
        assert self.kernel_vfs is not None
        if self.version.kernel_rw_variant == "pos_second":
            if len(args) != 3 or any(isinstance(a, PosRef) for a in args):
                self.panic("kernel_read: ABI mismatch (expected file, pos, count)")
            file_no, pos, count = args
        else:
            if len(args) != 3 or not isinstance(args[2], PosRef):
                self.panic("kernel_read: ABI mismatch (expected file, count, &pos)")
            file_no, count, pos_ref = args
            pos = pos_ref.value
        handle = self._kernel_file(file_no)
        data = self.kernel_vfs.pread(handle, count, pos)
        if self.version.kernel_rw_variant == "pos_pointer":
            args[2].value += len(data)
        return data

    def _k_kernel_write(self, *args: Any) -> int:
        assert self.kernel_vfs is not None
        if self.version.kernel_rw_variant == "pos_second":
            if len(args) != 3 or any(isinstance(a, PosRef) for a in args):
                self.panic("kernel_write: ABI mismatch (expected file, pos, buf)")
            file_no, pos, data = args
        else:
            if len(args) != 3 or not isinstance(args[2], PosRef):
                self.panic("kernel_write: ABI mismatch (expected file, buf, &pos)")
            file_no, data, pos_ref = args
            pos = pos_ref.value
        if not isinstance(data, (bytes, bytearray)):
            self.panic("kernel_write: buffer is not bytes")
        handle = self._kernel_file(file_no)
        written = self.kernel_vfs.pwrite(handle, bytes(data), pos)
        if self.version.kernel_rw_variant == "pos_pointer":
            args[2].value += written
        return written

    # -- process / threads (5) ------------------------------------------------------------------

    def _k_kthread_create_on_node(self, entry_token: str, name: str) -> int:
        entry = self.kthread_entries.get(entry_token)
        if entry is None:
            self.panic(f"kthread entry {entry_token!r} is not registered")
        thread = self.processes.add(
            GuestProcess(name, self.root_ns, kind="kthread")
        )
        self._kthreads[thread.pid] = (thread, entry)  # type: ignore[arg-type]
        return thread.pid

    def _k_wake_up_process(self, pid: int) -> int:
        entry = self._kthreads.pop(pid, None)
        if entry is None:
            self.panic(f"wake_up_process on unknown kthread {pid}")
        thread, fn = entry  # type: ignore[misc]
        fn()
        thread.exit(0)
        return 0

    def _k_call_usermodehelper(self, umh_bytes: bytes) -> int:
        args = UmhArgs.unpack(umh_bytes, self.version)
        return self.exec_user(args.path, list(args.argv))

    def _k_kernel_wait4(self, pid: int) -> int:
        try:
            process = self.processes.get(pid)
        except GuestError:
            return 0
        return process.exit_code if process.exit_code is not None else 0

    def _k_do_exit(self, code: int) -> int:
        return code

    def _k_printk(self, message: str) -> int:
        return self.printk(str(message))

    # ------------------------------------------------------------------
    # Userspace exec
    # ------------------------------------------------------------------

    def exec_user(
        self,
        path: str,
        argv: Optional[List[str]] = None,
        namespace: Optional[MountNamespace] = None,
        creds: Optional[Credentials] = None,
    ) -> int:
        """Execute a guest binary; returns the new pid."""
        vfs = Vfs(namespace) if namespace is not None else self.kernel_vfs
        assert vfs is not None
        content = vfs.read_file(path)
        if not content.startswith(b"#!SIMELF:"):
            raise GuestError(f"{path} is not executable")
        program_name = content.split(b"\n", 1)[0][len(b"#!SIMELF:") :].decode().strip()
        program = EXEC_PROGRAMS.get(program_name)
        if program is None:
            raise GuestError(f"{path}: no runtime for program {program_name!r}")
        process = self.processes.add(
            GuestProcess(
                program_name,
                namespace if namespace is not None else self.root_ns,
                creds=creds,
                argv=argv or [path],
            )
        )
        program.spawn(self, process, argv or [path])
        return process.pid

    # ------------------------------------------------------------------
    # Convenience for tests and benchmarks
    # ------------------------------------------------------------------

    def mount_filesystem(self, fs: Filesystem, path: str) -> Vfs:
        assert self.kernel_vfs is not None
        if not self.kernel_vfs.exists(path):
            self.kernel_vfs.makedirs(path)
        self.kernel_vfs.mount(fs, path)
        return self.kernel_vfs

    def make_fs_on(
        self,
        device_name: str,
        fstype: str = "xfs",
        features: Optional[set] = None,
    ) -> Filesystem:
        """mkfs: build a fresh filesystem on one of the guest's disks."""
        device = self.block_devices.get(device_name)
        if device is None:
            raise GuestError(f"no block device {device_name!r}")
        return Filesystem(
            fstype,
            device=device,
            cache=self.page_cache,
            costs=self.costs,
            features=features or set(),
            label=f"{fstype}-{device_name}",
        )


# ---------------------------------------------------------------------------
# Built-in userspace programs
# ---------------------------------------------------------------------------

class ShellProgram:
    """The /bin/sh personality: creates a GuestShell for the process."""

    @staticmethod
    def spawn(kernel: GuestKernel, process: GuestProcess, argv: List[str]) -> None:
        process.environ["SHELL"] = "/bin/sh"
        shell = GuestShell(process, kernel=kernel, costs=kernel.costs)
        process.shell = shell  # type: ignore[attr-defined]


register_program("shell", ShellProgram)
