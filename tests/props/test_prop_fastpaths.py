"""Property tests: every single-page / single-slot / single-segment fast
path answers exactly like the general path it bypasses.

* :class:`PhysicalMemory` against the page loop every access took before
  it had a single-page branch (kept here as the reference).
* :class:`RemoteProcessAccessor` ``read``/``write`` against
  ``read_vectored``/``write_vectored`` of the same range, and the
  kernel's single-segment ``process_vm_readv``/``writev`` against a
  one-entry iovec: same bytes, same :class:`AccessorStats`, same cost
  counters, same virtual time.
* Unmapped hvas, gpa holes, refused and unknown syscalls still raise
  the same error types.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    HostError,
    InvalidGpaError,
    MemoryError_,
    PermissionDeniedError,
    SeccompViolationError,
    VmshError,
)
from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.host.seccomp import SeccompFilter
from repro.kvm.api import KvmSystem
from repro.mem.physmem import PhysicalMemory
from repro.units import KiB, PAGE_SHIFT, PAGE_SIZE
from repro.virtio.memio import GpaTranslator, RemoteProcessAccessor

MEM_SIZE = 4 * PAGE_SIZE


# -- PhysicalMemory against the page loop --------------------------------------

def _ref_read(mem, addr, length):
    if addr < 0 or length < 0 or addr + length > mem.size:
        raise MemoryError_("out of range")
    out = bytearray(length)
    pos = 0
    while pos < length:
        cur = addr + pos
        offset = cur & (PAGE_SIZE - 1)
        chunk = min(length - pos, PAGE_SIZE - offset)
        page = mem._pages.get(cur >> PAGE_SHIFT)
        if page is not None:
            out[pos : pos + chunk] = page[offset : offset + chunk]
        pos += chunk
    return bytes(out)


def _ref_write(mem, addr, data):
    if addr < 0 or addr + len(data) > mem.size:
        raise MemoryError_("out of range")
    pos = 0
    while pos < len(data):
        cur = addr + pos
        offset = cur & (PAGE_SIZE - 1)
        chunk = min(len(data) - pos, PAGE_SIZE - offset)
        page = mem._pages.setdefault(cur >> PAGE_SHIFT, bytearray(PAGE_SIZE))
        page[offset : offset + chunk] = data[pos : pos + chunk]
        pos += chunk


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MemoryError_ as err:
        return type(err)


_addrs = st.integers(min_value=-16, max_value=MEM_SIZE + 16)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _addrs,
                  st.integers(min_value=-2, max_value=2 * PAGE_SIZE + 8)),
        st.tuples(st.just("write"), _addrs,
                  st.binary(min_size=0, max_size=2 * PAGE_SIZE + 8)),
    ),
    max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
@example(ops=[("write", PAGE_SIZE - 3, b"abcdef"), ("read", PAGE_SIZE - 4, 8)])
@example(ops=[("write", PAGE_SIZE, b""), ("read", 2 * PAGE_SIZE + 5, 2)])
@example(ops=[("write", MEM_SIZE - 2, b"xyz"), ("read", MEM_SIZE, 0)])
def test_physmem_fast_path_matches_page_loop(ops):
    fast, ref = PhysicalMemory(MEM_SIZE), PhysicalMemory(MEM_SIZE)
    for kind, addr, arg in ops:
        if kind == "read":
            assert _outcome(fast.read, addr, arg) == _outcome(_ref_read, ref, addr, arg)
        else:
            assert _outcome(fast.write, addr, arg) == _outcome(_ref_write, ref, addr, arg)
        assert fast.resident_pages == ref.resident_pages
        assert fast._pages == ref._pages


# -- RemoteProcessAccessor: scalar vs vectored ----------------------------------

SLOT = 16 * KiB


def _remote():
    """Two gpa-contiguous memslots backed by two separate mmaps."""
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    records = []
    for i in range(2):
        hva = host.syscall(hv.main_thread, "mmap", SLOT, f"guest-ram-{i}")
        records.append(MemslotRecord(slot=i, gpa=i * SLOT, size=SLOT, hva=hva))
    accessor = RemoteProcessAccessor(
        host, vmsh.main_thread, hv.pid, GpaTranslator(records)
    )
    return host, hv, accessor


def _state(host, hv, accessor):
    pages = [m.backing._pages for m in hv.address_space.mappings()]
    return (accessor.stats.as_dict(), dict(host.costs.counters),
            host.clock.now, pages)


_ranges = st.integers(min_value=0, max_value=2 * SLOT - 1).flatmap(
    lambda gpa: st.tuples(
        st.just(gpa), st.integers(min_value=0, max_value=min(3 * PAGE_SIZE, 2 * SLOT - gpa))
    )
)

#: a range inside one slot, one across the slot boundary, one empty
_RANGES = [(100, 64), (SLOT - 8, 24), (SLOT + 4, 0)]


@settings(max_examples=150, deadline=None)
@given(rng=_ranges, seed=st.integers(min_value=0, max_value=255))
@example(rng=_RANGES[0], seed=1)
@example(rng=_RANGES[1], seed=2)
@example(rng=_RANGES[2], seed=3)
def test_remote_scalar_matches_vectored(rng, seed):
    gpa, length = rng
    data = bytes((seed + i * 7) & 0xFF for i in range(length))
    scalar, vectored = _remote(), _remote()

    scalar[2].write(gpa, data)
    vectored[2].write_vectored([(gpa, data)])
    assert _state(*scalar) == _state(*vectored)

    got = scalar[2].read(gpa, length)
    assert got == vectored[2].read_vectored([(gpa, length)]) == data
    assert _state(*scalar) == _state(*vectored)


@settings(max_examples=100, deadline=None)
@given(offset=st.integers(min_value=0, max_value=SLOT - 1),
       length=st.integers(min_value=1, max_value=2 * PAGE_SIZE),
       seed=st.integers(min_value=0, max_value=255))
def test_process_vm_single_segment_matches_one_entry_iovec(offset, length, seed):
    """The kernel's ``(addr, length)`` form against a one-entry iovec."""
    length = min(length, SLOT - offset)
    data = bytes((seed + i * 3) & 0xFF for i in range(length))
    (host_a, hv_a, acc_a), (host_b, hv_b, acc_b) = _remote(), _remote()
    hva = hv_a.address_space.mappings()[0].start + offset
    assert hva == hv_b.address_space.mappings()[0].start + offset

    wrote = host_a.syscall(acc_a._thread, "process_vm_writev", hv_a.pid, hva, data)
    assert wrote == host_b.syscall(
        acc_b._thread, "process_vm_writev", hv_b.pid, [(hva, data)]
    )
    assert _state(host_a, hv_a, acc_a) == _state(host_b, hv_b, acc_b)

    got = host_a.syscall(acc_a._thread, "process_vm_readv", hv_a.pid, hva, length)
    assert got == host_b.syscall(
        acc_b._thread, "process_vm_readv", hv_b.pid, [(hva, length)]
    ) == data
    assert _state(host_a, hv_a, acc_a) == _state(host_b, hv_b, acc_b)


# -- error types -------------------------------------------------------------------

def test_unmapped_hva_raises_memory_error():
    host, hv, accessor = _remote()
    unmapped = hv.address_space.mappings()[0].end   # the guard gap
    vmsh = accessor._thread
    with pytest.raises(MemoryError_):
        hv.address_space.read(unmapped, 8)
    with pytest.raises(MemoryError_):
        hv.address_space.write(unmapped, b"x")
    with pytest.raises(MemoryError_):
        host.syscall(vmsh, "process_vm_readv", hv.pid, unmapped, 8)
    with pytest.raises(MemoryError_):
        host.syscall(vmsh, "process_vm_writev", hv.pid, unmapped - 4, b"12345678")


def test_gpa_hole_raises_vmsh_and_invalid_gpa_errors():
    host, hv, accessor = _remote()
    hole = 2 * SLOT
    with pytest.raises(VmshError):
        accessor.read(hole, 8)
    with pytest.raises(VmshError):
        accessor.write(hole - 4, b"12345678")
    assert accessor.covers(hole - 4, 8) is False
    assert accessor.covers(SLOT - 4, 8) is True

    kvm = KvmSystem(host)
    vm_fd = host.syscall(hv.main_thread, "ioctl", hv.fds.install(kvm), "KVM_CREATE_VM")
    vm = hv.fds.get(vm_fd)
    for record in accessor._translator.slots():
        host.syscall(hv.main_thread, "ioctl", vm_fd, "KVM_SET_USER_MEMORY_REGION",
                     {"slot": record.slot, "gpa": record.gpa, "size": record.size,
                      "hva": record.hva})
    ram = vm.guest_memory()
    with pytest.raises(InvalidGpaError):
        ram.read(hole, 8)
    with pytest.raises(InvalidGpaError):
        ram.write(SLOT - 4, b"12345678")         # spans two slots
    assert ram.covers(SLOT - 4, 8) is False
    assert ram.covers(SLOT - 8, 8) is True


def test_refused_and_unknown_syscalls_raise_their_errors():
    host, hv, accessor = _remote()
    hva = hv.address_space.mappings()[0].start
    with pytest.raises(HostError, match="unimplemented syscall"):
        host.syscall(accessor._thread, "no_such_syscall")
    user = host.spawn_process("user", uid=1000)
    user.drop_capability("CAP_SYS_PTRACE")
    with pytest.raises(PermissionDeniedError):
        host.syscall(user.main_thread, "process_vm_readv", hv.pid, hva, 8)
    confined = host.spawn_process("confined")
    confined.main_thread.seccomp_filter = SeccompFilter.allowlist("vmm", ["read"])
    with pytest.raises(SeccompViolationError):
        host.syscall(confined.main_thread, "process_vm_readv", hv.pid, hva, 8)
