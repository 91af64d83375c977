"""Transactional attach: rollback, retry, backoff and session scoping."""

import struct

import pytest

from repro.errors import PermanentFaultError, TransientFaultError
from repro.mem import pagetable as pt_x86
from repro.mem import pagetable_arm64 as pt_arm64
from repro.mem import pagetable_riscv as pt_riscv
from repro.sim.faults import FaultPlan, FaultSpec, PERMANENT
from repro.testbed import Testbed


# -- transport="auto": the failed mmio attempt must leave no residue --------

def test_auto_transport_rolls_back_mmio_before_pci_retry():
    """Cloud Hypervisor's MSI-X-only irqchip fails the mmio attempt at
    KVM_IRQFD; the PCI retry must start from pristine state."""
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    fds_before = len(hv.process.fds)
    slots_before = len(hv.vm.memslots())

    session = tb.vmsh().attach(hv.pid, transport="auto")
    assert session.report.transport == "pci"

    # The mmio attempt was rolled back in full before the PCI attempt:
    # only MSI routes exist, no pin-based GSI routes leaked...
    assert hv.vm.irq_routes == {}
    assert len(hv.vm._msi_routes) == 2            # console + blk
    # ...the hypervisor's fd table carries no leftover injected fds...
    assert len(hv.process.fds) == fds_before
    # ...and exactly one new memslot exists (the library).
    assert len(hv.vm.memslots()) == slots_before + 1

    # The span stream shows the failed transaction unwinding before
    # the retry (span ids follow stream order).
    rollbacks = tb.obs.spans.find("txn.rollback")
    commits = tb.obs.spans.find("txn.commit")
    assert len(rollbacks) == 1 and len(commits) == 1
    assert rollbacks[0].attrs["failed_step"] == "create_device_fds"
    assert rollbacks[0].sid < commits[0].sid

    assert session.console.run_command("echo pci").output == "pci"


# -- per-session privilege scoping ------------------------------------------

def test_privileges_restored_on_detach_and_reattach_works():
    """§4.5 capabilities are dropped per-session: detach re-grants them
    so the *same* VMSH process can attach again."""
    tb = Testbed()
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    session = vmsh.attach(hv.pid)
    assert not vmsh.process.has_capability("CAP_BPF")
    assert not vmsh.process.has_capability("CAP_SYS_ADMIN")
    session.detach()
    assert vmsh.process.has_capability("CAP_BPF")
    assert vmsh.process.has_capability("CAP_SYS_ADMIN")
    second = vmsh.attach(hv.pid)
    assert second.console.run_command("echo again").output == "again"


def test_failure_after_privilege_drop_regrants_on_rollback(monkeypatch):
    """The caps are dropped at the *last* pipeline step, so the only
    failure point after them is the commit itself — fail it and the
    rollback must re-grant what was dropped."""
    tb = Testbed()
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    from repro.core.txn import AttachTransaction

    def failing_commit(self):
        raise RuntimeError("synthetic failure after drop_privileges")

    monkeypatch.setattr(AttachTransaction, "commit", failing_commit)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        vmsh.attach(hv.pid)
    assert vmsh.process.has_capability("CAP_BPF")
    assert vmsh.process.has_capability("CAP_SYS_ADMIN")
    assert hv.process.tracer is None
    assert hv.guest.panicked is None
    monkeypatch.undo()
    session = vmsh.attach(hv.pid)
    assert session.console.run_command("echo ok").output == "ok"


# -- detach fd hygiene -------------------------------------------------------

def test_detach_closes_session_fds_ioregionfd_mode():
    tb = Testbed(ioregionfd=True)
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    session = vmsh.attach(hv.pid)
    assert session.report.mmio_mode == "ioregionfd"
    owned = list(session._vmsh_fds)
    assert owned, "ioregionfd session must own device fds + socket"
    assert all(fd in vmsh.process.fds for fd in owned)
    session.detach()
    assert all(fd not in vmsh.process.fds for fd in owned)
    assert session._vmsh_fds == []
    session.detach()  # idempotent


def test_detach_closes_session_fds_wrap_mode():
    tb = Testbed(ioregionfd=False)
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    session = vmsh.attach(hv.pid)
    assert session.report.mmio_mode == "wrap_syscall"
    owned = list(session._vmsh_fds)
    assert owned and all(fd in vmsh.process.fds for fd in owned)
    session.detach()
    assert all(fd not in vmsh.process.fds for fd in owned)
    assert hv.process.tracer is None
    session.detach()  # idempotent


# -- deterministic retry/backoff ---------------------------------------------

def test_retry_backoff_is_exponential_on_the_sim_clock():
    tb = Testbed()
    hv = tb.launch_qemu()
    plan = FaultPlan(
        [FaultSpec(site="attach.discover", occurrence=1, count=2)]
    )
    with tb.host.faults.plan(plan):
        session = tb.vmsh().attach(hv.pid, retries=3)
    retries = tb.obs.spans.find("attach.retry")
    assert [e.attrs["backoff_ns"] for e in retries] == [100_000, 200_000]
    assert [e.attrs["attempt"] for e in retries] == [1, 2]
    assert all(e.attrs["site"] == "attach.discover" for e in retries)
    # The waits really elapsed on the virtual clock.
    assert retries[1].start_ns >= retries[0].start_ns + 100_000
    assert session.console.run_command("echo retried").output == "retried"


def test_zero_retries_propagates_first_transient_fault():
    tb = Testbed()
    hv = tb.launch_qemu()
    plan = FaultPlan([FaultSpec(site="attach.analyse", occurrence=1)])
    with tb.host.faults.plan(plan):
        with pytest.raises(TransientFaultError):
            tb.vmsh().attach(hv.pid)


def test_negative_retries_rejected():
    tb = Testbed()
    hv = tb.launch_qemu()
    from repro.errors import VmshError

    with pytest.raises(VmshError):
        tb.vmsh().attach(hv.pid, retries=-1)


# -- guest page tables are journaled and restored ----------------------------

def _x86_child(entry, depth):
    if entry & pt_x86.PTE_PRESENT and not (depth and entry & pt_x86.PTE_PSE):
        return entry & pt_x86.PTE_ADDR_MASK
    return None


def _arm64_child(entry, depth):
    if entry & 0b11 == pt_arm64.DESC_TABLE_OR_PAGE:
        return entry & pt_arm64.ADDR_MASK
    return None


def _riscv_child(entry, depth):
    if entry & pt_riscv.PTE_V and not entry & (pt_riscv.PTE_R | pt_riscv.PTE_X):
        return pt_riscv._pte_paddr(entry)
    return None


#: arch -> (table levels, decoder of a non-leaf entry into its child
#: table's paddr, or None for an absent entry or a leaf)
TABLE_FORMATS = {
    "x86_64": (4, _x86_child),
    "arm64": (4, _arm64_child),
    "riscv64": (3, _riscv_child),
    "riscv64_sv48": (4, _riscv_child),
}


def _reachable_table_pages(arch, mem, root):
    """paddr -> bytes of every table page reachable from ``root``, at
    every level."""
    levels, child = TABLE_FORMATS[arch.name]
    pages = {}
    frontier = [arch.pt_root_paddr(root)]
    for depth in range(levels):
        below = []
        for table in frontier:
            raw = mem.read(table, 4096)
            pages[table] = raw
            if depth < levels - 1:
                for (entry,) in struct.iter_unpack("<Q", raw):
                    paddr = child(entry, depth)
                    if paddr is not None:
                        below.append(paddr)
        frontier = below
    return pages


def test_rollback_restores_guest_page_tables_bit_identical():
    """A fault after load_library must undo every page-table word VMSH
    wrote while mapping the library (and delete the library memslot):
    on every ISA, every table page reachable from the root, at every
    level, comes back bit-identical."""
    for arch in TABLE_FORMATS:
        tb = Testbed(arch=arch)
        hv = tb.launch_qemu()
        mem = hv.vm.guest_memory()
        tables_before = _reachable_table_pages(tb.arch, mem, hv.guest.cr3)
        assert len(tables_before) >= TABLE_FORMATS[arch][0], arch
        slots_before = [
            (s.slot, s.gpa, s.size, s.hva) for s in hv.vm.memslots()
        ]
        plan = FaultPlan([FaultSpec(site="attach.hijack", kind=PERMANENT)])
        with tb.host.faults.plan(plan):
            with pytest.raises(PermanentFaultError):
                tb.vmsh().attach(hv.pid)
        tables_after = _reachable_table_pages(tb.arch, mem, hv.guest.cr3)
        assert tables_after == tables_before, arch
        assert [
            (s.slot, s.gpa, s.size, s.hva) for s in hv.vm.memslots()
        ] == slots_before, arch
        assert hv.guest.panicked is None, arch
