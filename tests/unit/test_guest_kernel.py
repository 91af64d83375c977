"""Guest kernel: boot layout, kernel functions, exec, panics."""

import pytest

from repro.arch import X86_64
from repro.errors import GuestError, GuestPanicError
from repro.guestos.kernel import GuestKernel
from repro.guestos.kfunctions import PosRef
from repro.guestos.loader import KERNEL_IMAGE_SIZE
from repro.guestos.version import KernelVersion
from repro.guestos.vfs import O_CREAT, O_RDWR
from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed
from repro.units import PAGE_SIZE


@pytest.fixture()
def guest():
    tb = Testbed()
    hv = tb.launch_qemu()
    return hv.guest


def test_boot_places_kernel_in_kaslr_range(guest):
    image = guest.image
    base = X86_64.kernel_text_base
    assert base <= image.vbase < base + X86_64.kernel_text_range
    assert image.vbase % (2 * 1024 * 1024) == 0


def test_kaslr_differs_across_vms():
    tb = Testbed()
    bases = set()
    for _ in range(4):
        hv = tb.launch_qemu()
        bases.add(hv.guest.image.vbase)
    assert len(bases) > 1


def test_kernel_image_mapped_in_page_tables(guest):
    walker = guest.walker()
    tr = walker.translate(guest.cr3, guest.image.vbase)
    assert tr.paddr == guest.image.pbase
    end = guest.image.vbase + KERNEL_IMAGE_SIZE
    assert not walker.is_mapped(guest.cr3, end)


@pytest.mark.parametrize("arch", ["x86_64", "arm64", "riscv64", "riscv64_sv48"])
def test_boot_writes_each_table_page_once(arch, monkeypatch):
    """Boot builds its page tables through a page-table view: one
    ``physmem.write`` per table page it allocates, where zeroing each
    new table word by word alone took 512."""
    tables = []
    alloc = GuestKernel._alloc_table_page

    def recording_alloc(self):
        tables.append(alloc(self))
        return tables[-1]

    writes = []
    monkeypatch.setattr(GuestKernel, "_alloc_table_page", recording_alloc)
    monkeypatch.setattr(
        PhysicalMemory, "fault_check",
        lambda site, addr, length: writes.append((addr, length))
        if site == "physmem.write" else None,
    )
    hv = Testbed(arch=arch).launch_qemu()
    # Guest RAM is one memslot at gpa 0, so a physmem address is a gpa.
    assert [(s.gpa, s.slot) for s in hv.vm.memslots()] == [(0, 0)]
    table_pages = {table // PAGE_SIZE for table in tables}
    hits = [
        table_pages & set(range(addr // PAGE_SIZE, (addr + length - 1) // PAGE_SIZE + 1))
        for addr, length in writes
    ]
    hits = [pages for pages in hits if pages]
    assert len(tables) >= 3
    assert set().union(*hits) == table_pages    # every table reached memory
    assert len(hits) <= len(tables)


def test_banner_readable_at_symbol(guest):
    banner_vaddr = guest.image.symbols["linux_banner"]
    raw = guest.read_virt(banner_vaddr, 64)
    assert raw.startswith(b"Linux version 5.10.0")


def test_vcpu_parked_at_idle(guest):
    assert guest.boot_vcpu.regs["rip"] == guest.idle_vaddr
    assert guest.execute_at(guest.idle_vaddr, guest.boot_vcpu) == "idle"


def test_jump_to_garbage_panics(guest):
    with pytest.raises(GuestPanicError):
        guest.execute_at(guest.image.vbase + 0x123, guest.boot_vcpu)
    # The guest stays panicked afterwards.
    with pytest.raises(GuestPanicError):
        guest.execute_at(guest.idle_vaddr, guest.boot_vcpu)


def test_call_kfunc_by_address(guest):
    printk_addr = guest.image.symbols["printk"]
    guest.call_kfunc(printk_addr, "hello from test")
    assert "hello from test" in guest.klog


def test_call_nonfunction_address_panics(guest):
    with pytest.raises(GuestPanicError):
        guest.call_kfunc(guest.image.vbase + 0x999, "x")


def test_kernel_file_io_functions(guest):
    filp_open = guest.image.symbols["filp_open"]
    kernel_write = guest.image.symbols["kernel_write"]
    kernel_read = guest.image.symbols["kernel_read"]
    filp_close = guest.image.symbols["filp_close"]
    fno = guest.call_kfunc(filp_open, "/dev/testfile", frozenset({O_CREAT, O_RDWR}), 0o600)
    pos = PosRef(0)
    written = guest.call_kfunc(kernel_write, fno, b"kernel-data", pos)
    assert written == 11
    assert pos.value == 11
    data = guest.call_kfunc(kernel_read, fno, 11, PosRef(0))
    assert data == b"kernel-data"
    guest.call_kfunc(filp_close, fno)
    assert guest.kernel_vfs.read_file("/dev/testfile") == b"kernel-data"


def test_kernel_rw_abi_mismatch_panics(guest):
    """v5.10 expects (file, count, &pos); old-style args must panic."""
    filp_open = guest.image.symbols["filp_open"]
    kernel_read = guest.image.symbols["kernel_read"]
    fno = guest.call_kfunc(filp_open, "/dev/f2", frozenset({O_CREAT, O_RDWR}), 0o600)
    with pytest.raises(GuestPanicError, match="ABI mismatch"):
        guest.call_kfunc(kernel_read, fno, 0, 16)   # pos_second ordering


def test_old_kernel_rw_abi():
    tb = Testbed()
    hv = tb.launch_qemu(guest_version=KernelVersion(4, 4))
    guest = hv.guest
    filp_open = guest.image.symbols["filp_open"]
    kernel_write = guest.image.symbols["kernel_write"]
    fno = guest.call_kfunc(filp_open, "/dev/old", frozenset({O_CREAT, O_RDWR}), 0o600)
    # pos_second convention: (file, pos, buf)
    assert guest.call_kfunc(kernel_write, fno, 0, b"ok") == 2
    # New convention must panic on the old kernel.
    with pytest.raises(GuestPanicError, match="ABI mismatch"):
        guest.call_kfunc(kernel_write, fno, b"ok", PosRef(0))


def test_kthread_lifecycle(guest):
    ran = []
    guest.kthread_entries["test-entry"] = lambda: ran.append(1)
    create = guest.image.symbols["kthread_create_on_node"]
    wake = guest.image.symbols["wake_up_process"]
    pid = guest.call_kfunc(create, "test-entry", "test-kthread")
    assert ran == []                      # created but not started
    guest.call_kfunc(wake, pid)
    assert ran == [1]


def test_kthread_unknown_entry_panics(guest):
    create = guest.image.symbols["kthread_create_on_node"]
    with pytest.raises(GuestPanicError):
        guest.call_kfunc(create, "missing-entry", "x")


def test_exec_user_requires_simelf(guest):
    guest.kernel_vfs.write_file("/bin/not-exec", b"just data")
    with pytest.raises(GuestError, match="not executable"):
        guest.exec_user("/bin/not-exec")


def test_exec_user_spawns_shell(guest):
    pid = guest.exec_user("/bin/sh")
    process = guest.processes.get(pid)
    assert process.name == "shell"
    assert hasattr(process, "shell")


def test_double_boot_rejected(guest):
    with pytest.raises(GuestError):
        guest.boot()


def test_alloc_guest_pages_bump(guest):
    a = guest.alloc_guest_pages(2)
    b = guest.alloc_guest_pages(1)
    assert b == a + 2 * 4096
    with pytest.raises(GuestError):
        guest.alloc_guest_pages(0)


def test_irq_registration(guest):
    fired = []
    guest.register_irq(99, fired.append)
    guest.handle_irq(99)
    guest.handle_irq(100)  # unclaimed: ignored
    assert fired == [99]
