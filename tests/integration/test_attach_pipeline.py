"""The complete VMSH attach pipeline, end to end (the paper's core)."""

import pytest

from repro.core.libbuild import VMSH_MMIO_BASE
from repro.guestos.version import KernelVersion
from repro.testbed import Testbed
from repro.units import MiB


@pytest.fixture(scope="module")
def attached():
    tb = Testbed()
    hv = tb.launch_qemu(disk=tb.nvme_partition(64 * MiB))
    vmsh = tb.vmsh()
    session = vmsh.attach(hv.pid)
    return tb, hv, vmsh, session


def test_report_describes_the_guest(attached):
    tb, hv, vmsh, session = attached
    report = session.report
    assert report.kernel_version == KernelVersion(5, 10)
    assert report.ksymtab_layout == "prel32_ns"
    assert report.kernel_vbase == hv.guest.image.vbase
    assert report.mmio_mode == "ioregionfd"
    assert report.attach_ns > 0
    assert report.symbols_found >= 13


def test_report_memory_fast_path_counters(attached):
    """The attach report exposes what the copy fast path actually did."""
    tb, hv, vmsh, session = attached
    report = session.report
    assert report.copy_path == "vectored"
    gateway = report.accessor_stats["gateway"]
    device = report.accessor_stats["device"]
    # Binary analysis + library load all went through the gateway...
    assert gateway["calls"] > 0
    assert gateway["bytes_read"] > 0
    assert gateway["bytes_written"] > 0
    # ...and the device side batched scattered segments into fewer calls.
    assert device["segments_coalesced"] > 0
    assert device["calls"] < device["segments"]
    # The software TLB both missed (first walks) and hit (reuse).
    assert report.tlb_misses > 0
    assert report.tlb_hits > 0
    assert 0.0 < report.tlb_hit_rate < 1.0
    # Live counters keep ticking past the attach-time snapshot.
    live = session.memory_stats()
    assert live["device"]["calls"] >= device["calls"]
    assert live["tlb"]["hits"] >= report.tlb_hits


def test_attach_reads_page_tables_a_table_page_per_remote_call():
    """The KASLR scan and the library mapping read each guest table page
    once and flush their page-table writes in one vectored call, so a
    whole attach stays within a few dozen ``process_vm_*`` calls."""
    tb = Testbed(ioregionfd=True)
    hv = tb.launch_qemu()
    before = tb.costs.count("procvm_copy")
    session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")
    assert session.report.mmio_mode == "ioregionfd"
    assert tb.costs.count("procvm_copy") - before <= 100


def test_library_mapped_after_kernel_image(attached):
    """Fig. 3: the library lands right after the kernel in vaddr space."""
    tb, hv, vmsh, session = attached
    from repro.guestos.loader import KERNEL_IMAGE_SIZE

    assert session.report.lib_vaddr == hv.guest.image.vbase + KERNEL_IMAGE_SIZE


def test_library_in_fresh_high_memslot(attached):
    tb, hv, vmsh, session = attached
    slots = hv.vm.memslots()
    assert len(slots) == 2
    high = max(slots, key=lambda s: s.gpa)
    assert high.gpa >= 0x1_0000_0000


def test_guest_klog_shows_sideload(attached):
    tb, hv, vmsh, session = attached
    log = "\n".join(hv.guest.klog)
    assert "vmsh: kernel library loaded" in log
    assert "vmsh: console device" in log
    assert "vmsh: block device" in log
    assert "vmsh: stage2 spawned" in log
    assert "vmsh: kernel library done" in log


def test_vcpu_context_restored(attached):
    """The trampoline must hand back the original RIP (idle loop)."""
    tb, hv, vmsh, session = attached
    assert hv.guest.boot_vcpu.regs["rip"] == hv.guest.idle_vaddr
    assert hv.guest.panicked is None


def test_devices_registered_in_guest(attached):
    tb, hv, vmsh, session = attached
    guest = hv.guest
    assert guest.vmsh_console is not None
    assert guest.vmsh_block is not None
    assert "vmshblk0" in guest.block_devices


def test_stage2_binary_copied_to_dev(attached):
    tb, hv, vmsh, session = attached
    content = hv.guest.kernel_vfs.read_file("/dev/.vmsh-stage2")
    assert content.startswith(b"#!SIMELF:vmsh-stage2")


def test_overlay_root_is_the_image(attached):
    tb, hv, vmsh, session = attached
    console = session.console
    listing = console.run_command("ls /").output
    assert "bin" in listing and "var" in listing
    assert console.run_command("cat /etc/os-release").output.startswith(
        'NAME="vmsh-overlay"'
    )


def test_guest_root_visible_under_var_lib_vmsh(attached):
    tb, hv, vmsh, session = attached
    out = session.console.run_command("cat /var/lib/vmsh/etc/hostname").output
    assert out == "guest"


def test_overlay_invisible_to_existing_guest_processes(attached):
    """Mount-namespace isolation (§4.4)."""
    tb, hv, vmsh, session = attached
    init_vfs = hv.guest.init_process.vfs
    assert not init_vfs.exists("/etc/os-release")       # overlay-only file
    assert init_vfs.read_file("/etc/hostname") == b"guest\n"


def test_overlay_writes_do_not_touch_guest_root(attached):
    tb, hv, vmsh, session = attached
    session.console.run_command("echo x")  # ensure overlay alive
    overlay = hv.guest.vmsh_overlay.overlay
    overlay.vfs.write_file("/tmp/vmsh-scratch", b"tmp")
    assert not hv.guest.init_process.vfs.exists("/tmp/vmsh-scratch")


def test_image_changes_land_in_served_image(attached):
    """Writes to the overlay root go through vmsh-blk to the image."""
    tb, hv, vmsh, session = attached
    overlay = hv.guest.vmsh_overlay.overlay
    overlay.vfs.write_file("/persisted.txt", b"persist-me")
    root_fs = overlay.namespace.root_mount().fs
    root_fs.sync_all()
    assert b"persist-me" in session.image_snapshot()


def test_mmio_windows_outside_hypervisor_region(attached):
    tb, hv, vmsh, session = attached
    assert all(base < VMSH_MMIO_BASE for base in hv._mmio_devices)


def test_privileges_dropped_after_setup(attached):
    """§4.5: capabilities are dropped before interacting further."""
    tb, hv, vmsh, session = attached
    assert not vmsh.process.has_capability("CAP_BPF")
    assert not vmsh.process.has_capability("CAP_SYS_ADMIN")


def test_qemu_disk_still_works_while_attached(attached):
    """Non-interference: the guest's own device is untouched."""
    tb, hv, vmsh, session = attached
    guest = hv.guest
    fs = guest.make_fs_on("vda", "xfs")
    vfs = guest.mount_filesystem(fs, "/mnt/check")
    vfs.write_file("/mnt/check/data", b"unaffected")
    assert vfs.read_file("/mnt/check/data") == b"unaffected"


def test_ioregionfd_session_survives_ptrace_detach(attached):
    """After setup the ptrace session is gone; devices still work."""
    tb, hv, vmsh, session = attached
    assert session._ptrace is None
    assert hv.process.tracer is None
    assert session.console.run_command("echo still-alive").output == "still-alive"


def test_container_aware_attach():
    """§4.4: attach adopts a container's context."""
    from repro.guestos.process import CONTAINER_CAPABILITIES, Credentials, GuestProcess

    tb = Testbed()
    hv = tb.launch_qemu()
    guest = hv.guest
    container_ns = guest.root_ns.clone()
    container = guest.processes.add(
        GuestProcess(
            "app-container",
            container_ns,
            creds=Credentials(uid=1001, gid=1001),
            pid_ns="container-7",
            cgroup="/docker/abc123",
            capabilities=CONTAINER_CAPABILITIES,
            security_profile="docker-default",
        )
    )
    session = tb.vmsh().attach(hv.pid, container_pid=container.pid)
    overlay = guest.vmsh_overlay
    shell_process = guest.processes.get(overlay.shell_pid)
    assert shell_process.creds.uid == 1001
    assert shell_process.security_profile == "docker-default"
    assert shell_process.cgroup == "/docker/abc123"
    assert shell_process.pid_ns == "container-7"
    assert shell_process.capabilities == CONTAINER_CAPABILITIES
    assert session.console.run_command("id").output == "uid=1001 gid=1001"


def test_reattach_supersedes_previous_session():
    """A second attach to the same VM must take over cleanly: the new
    ioregion registrations replace the detached session's."""
    tb = Testbed()
    hv = tb.launch_qemu()
    first = tb.vmsh().attach(hv.pid)
    assert first.console.run_command("echo first").output == "first"
    first.detach()
    second = tb.vmsh().attach(hv.pid, exec_device=True)
    assert second.console.run_command("echo second").output == "second"
    assert second.exec("echo via-exec").output == "via-exec"
