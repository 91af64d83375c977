"""KVM layer: memslots, vcpus, irqfd, ioeventfd, ioregionfd, MMIO."""

import pytest

from repro.errors import (
    InvalidGpaError,
    KvmError,
    MemslotOverlapError,
    NoSuchProcessError,
)
from repro.host.kernel import HostKernel
from repro.kvm.api import KvmSystem, VmFd
from repro.kvm.exits import MmioExit
from repro.kvm.memslots import MemslotTable
from repro.units import MiB


@pytest.fixture()
def setup():
    host = HostKernel()
    hv = host.spawn_process("vmm")
    kvm = KvmSystem(host)
    kvm_fd = hv.fds.install(kvm)
    vm_fd = host.syscall(hv.main_thread, "ioctl", kvm_fd, "KVM_CREATE_VM")
    vm = hv.fds.get(vm_fd)
    hva = host.syscall(hv.main_thread, "mmap", 32 * MiB, "guest-ram")
    host.syscall(
        hv.main_thread, "ioctl", vm_fd, "KVM_SET_USER_MEMORY_REGION",
        {"slot": 0, "gpa": 0, "size": 32 * MiB, "hva": hva},
    )
    return host, hv, vm, vm_fd


# -- memslot table ------------------------------------------------------------

def test_memslot_overlap_rejected():
    table = MemslotTable()
    table.set_region(0, 0, 1 * MiB, 0x1000)
    with pytest.raises(MemslotOverlapError):
        table.set_region(1, 512 * 1024, 1 * MiB, 0x2000)


def test_memslot_replace_same_slot():
    table = MemslotTable()
    table.set_region(0, 0, 1 * MiB, 0x1000)
    table.set_region(0, 0, 2 * MiB, 0x9000)
    assert table.lookup(1 * MiB).hva == 0x9000


def test_memslot_delete_with_zero_size():
    table = MemslotTable()
    table.set_region(0, 0, 1 * MiB, 0x1000)
    table.set_region(0, 0, 0, 0)
    assert len(table) == 0


def test_memslot_lookup_miss():
    table = MemslotTable()
    table.set_region(0, 0, 1 * MiB, 0)
    with pytest.raises(InvalidGpaError):
        table.lookup(2 * MiB)
    assert table.try_lookup(2 * MiB) is None


def test_memslot_free_slot_id():
    table = MemslotTable()
    table.set_region(0, 0, 1 * MiB, 0)
    table.set_region(1, 2 * MiB, 1 * MiB, 0x100000)
    assert table.free_slot_id() == 2
    assert table.highest_gpa() == 3 * MiB


# -- guest memory through memslots ------------------------------------------------

def test_guest_memory_roundtrip(setup):
    _, _, vm, _ = setup
    mem = vm.guest_memory()
    mem.write(0x5000, b"guest bytes")
    assert mem.read(0x5000, 11) == b"guest bytes"
    mem.write_u64(0x6000, 0x1234)
    assert mem.read_u64(0x6000) == 0x1234


def test_guest_memory_visible_in_hypervisor_va(setup):
    """The property VMSH depends on: guest RAM == hypervisor mapping."""
    _, hv, vm, _ = setup
    mem = vm.guest_memory()
    mem.write(0x7000, b"shared")
    mapping = next(m for m in hv.address_space.mappings() if m.name == "guest-ram")
    assert hv.address_space.read(mapping.start + 0x7000, 6) == b"shared"


# -- vcpus -------------------------------------------------------------------------

def test_vcpu_creation_and_registers(setup):
    host, hv, vm, vm_fd = setup
    vcpu_fd = host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CREATE_VCPU")
    regs = host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_GET_REGS")
    assert regs["rip"] == 0
    host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_SET_REGS", {"rip": 0xFF})
    assert host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_GET_REGS")["rip"] == 0xFF


def test_vcpu_sregs_cr3(setup):
    host, hv, vm, vm_fd = setup
    vcpu_fd = host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CREATE_VCPU")
    host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_SET_SREGS", {"cr3": 0x100000})
    assert host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_GET_SREGS")["cr3"] == 0x100000


def test_vcpu_rejects_unknown_register(setup):
    host, hv, _, vm_fd = setup
    vcpu_fd = host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CREATE_VCPU")
    with pytest.raises(KvmError):
        host.syscall(hv.main_thread, "ioctl", vcpu_fd, "KVM_SET_REGS", {"xyz": 1})


# -- interrupts ----------------------------------------------------------------------

def test_irqfd_routes_to_guest(setup):
    host, hv, vm, vm_fd = setup
    received = []
    vm.guest_irq_sink = received.append
    efd_fd = host.syscall(hv.main_thread, "eventfd2")
    host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_IRQFD",
                 {"gsi": 42, "eventfd": efd_fd})
    host.syscall(hv.main_thread, "write", efd_fd)
    assert received == [42]
    assert host.costs.count("irq_inject") == 1


def test_irqfd_rejected_without_gsi_routing(setup):
    """Cloud Hypervisor's MSI-X-only model (Table 1)."""
    host, hv, vm, vm_fd = setup
    vm.gsi_routing_supported = False
    efd_fd = host.syscall(hv.main_thread, "eventfd2")
    with pytest.raises(KvmError, match="MSI-X"):
        host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_IRQFD",
                     {"gsi": 42, "eventfd": efd_fd})


# -- MMIO dispatch ----------------------------------------------------------------------

def _vcpu_with_handler(setup):
    host, hv, vm, vm_fd = setup
    vcpu_fd = host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CREATE_VCPU")
    vcpu = hv.fds.get(vcpu_fd)
    vcpu.run_thread = hv.spawn_thread("vcpu-run")
    log = []

    def handler(vcpu_, exit):
        log.append((exit.is_write, exit.addr, exit.data))
        if not exit.is_write:
            exit.data = 0xCAFE
        exit.handled = True

    vm.userspace_exit_handler = handler
    return host, vm, vcpu, log


def test_mmio_exit_reaches_hypervisor(setup):
    host, vm, vcpu, log = _vcpu_with_handler(setup)
    value = vm.mmio_access(vcpu, False, 0xD0000000, 4)
    assert value == 0xCAFE
    vm.mmio_access(vcpu, True, 0xD0000004, 4, 7)
    assert log == [(False, 0xD0000000, 0), (True, 0xD0000004, 7)]
    assert host.costs.count("vmexit") == 2


def test_unhandled_mmio_raises(setup):
    host, hv, vm, vm_fd = setup
    vcpu_fd = host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CREATE_VCPU")
    vcpu = hv.fds.get(vcpu_fd)
    with pytest.raises(KvmError, match="no userspace exit handler"):
        vm.mmio_access(vcpu, True, 0xD0000000, 4, 1)


def test_ioeventfd_bypasses_hypervisor(setup):
    host, vm, vcpu, log = _vcpu_with_handler(setup)
    hv = vm.owner
    efd_fd = host.syscall(hv.main_thread, "eventfd2")
    vm.ioctl("KVM_IOEVENTFD", {"addr": 0xD0000050, "eventfd": efd_fd}, hv.main_thread)
    vm.mmio_access(vcpu, True, 0xD0000050, 4, 1)
    assert log == []                      # hypervisor never woken
    assert hv.fds.get(efd_fd).counter == 1


def test_ioregionfd_routes_over_socket(setup):
    host, vm, vcpu, log = _vcpu_with_handler(setup)
    hv = vm.owner
    sock_a_fd, sock_b_fd = host.syscall(hv.main_thread, "socketpair")
    vm.ioctl(
        "KVM_SET_IOREGION",
        {"gpa": 0xE0000000, "size": 0x1000, "socket": sock_a_fd},
        hv.main_thread,
    )
    sock_b = hv.fds.get(sock_b_fd)
    seen = []

    def device(msg):
        seen.append(msg)
        if msg["type"] == "read":
            sock_b.send({"data": 0xBEEF})

    sock_b.on_message(device)
    assert vm.mmio_access(vcpu, False, 0xE0000008, 4) == 0xBEEF
    vm.mmio_access(vcpu, True, 0xE0000008, 4, 5)
    assert [m["type"] for m in seen] == ["read", "write"]
    assert log == []                      # hypervisor untouched
    assert host.costs.count("ioregionfd_msg") == 2


def test_ioregionfd_unsupported_kernel(setup):
    host, hv, vm, vm_fd = setup
    vm.system.ioregionfd_supported = False
    sock_a_fd, _ = host.syscall(hv.main_thread, "socketpair")
    with pytest.raises(KvmError, match="not supported"):
        vm.ioctl("KVM_SET_IOREGION",
                 {"gpa": 0xE0000000, "size": 0x1000, "socket": sock_a_fd},
                 hv.main_thread)


def test_check_extension(setup):
    host, hv, vm, vm_fd = setup
    assert host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CHECK_EXTENSION",
                        "KVM_CAP_IOREGIONFD") is True
    vm.system.ioregionfd_supported = False
    assert host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_CHECK_EXTENSION",
                        "KVM_CAP_IOREGIONFD") is False


def test_wrap_hook_steals_exit(setup):
    """A ptrace syscall hook on the vcpu thread sees the kvm_run page
    before the hypervisor and may consume the exit (wrap_syscall)."""
    host, vm, vcpu, log = _vcpu_with_handler(setup)

    def hook(thread, name, phase):
        run = vcpu.mmap_run_page()
        if phase == "exit" and run.exit_reason == "mmio" and run.mmio is not None:
            if not run.mmio.handled and run.mmio.addr >= 0xE0000000:
                run.mmio.data = 0x77
                run.mmio.handled = True
                run.mmio.handled_by = "vmsh"

    host.install_syscall_hook(vcpu.run_thread, hook)
    assert vm.mmio_access(vcpu, False, 0xE0000000, 4) == 0x77
    assert log == []                        # stolen before the VMM saw it
    assert vm.mmio_access(vcpu, False, 0xD0000000, 4) == 0xCAFE
    assert log != []                        # others still pass through
    assert host.costs.count("ptrace_stop") >= 4


# -- process exit ---------------------------------------------------------------

def test_exit_releases_the_vm_and_unmaps_guest_ram(setup):
    host, hv, vm, vm_fd = setup
    kvm = vm.system
    syscalls = host.obs.metrics.snapshot()
    host.exit_process(hv.pid)
    assert kvm.vms == []                    # the last VM fd closed
    assert len(hv.fds) == 0
    assert hv.address_space.mappings() == []
    assert hv.pid in host.processes         # the pid entry stays, exited
    with pytest.raises(NoSuchProcessError, match="has exited"):
        host.process(hv.pid)
    assert host.obs.metrics.snapshot() == syscalls   # no syscall, no counter


def test_exit_keeps_a_vm_another_process_still_holds(setup):
    host, hv, vm, vm_fd = setup
    debugger = host.spawn_process("debugger")
    debugger.fds.install(vm)                # e.g. an fd passed over SCM_RIGHTS
    host.exit_process(hv.pid)
    assert vm.system.vms == [vm]
    debugger.fds.close(next(fd for fd, f in debugger.fds.items() if f is vm))
    assert vm.system.vms == []
