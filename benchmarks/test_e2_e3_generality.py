"""E2/E3 (§6.2, Table 1): hypervisor and kernel-version generality.

PR 9 adds the architecture axis: the same attach matrix across
x86_64, arm64 and riscv64 (Sv39 *and* Sv48), with the host-side
walker checked against the genuine PTE bytes the guest kernel wrote
at boot, and byte-identical per-seed traces on the riscv64 leg.
"""

import pytest
from conftest import write_report

from repro.arch import arch_by_name
from repro.errors import (
    HypervisorNotSupportedError,
    KvmError,
    SeccompViolationError,
)
from repro.guestos.version import ALL_TESTED_VERSIONS
from repro.hypervisors import (
    CloudHypervisor,
    Crosvm,
    Firecracker,
    Kvmtool,
    Qemu,
)
from repro.testbed import Testbed


def _attach_matrix():
    rows = []
    for cls, kwargs, label in (
        (Qemu, {}, "QEMU"),
        (Kvmtool, {}, "kvmtool"),
        (Firecracker, {"seccomp": False}, "Firecracker (seccomp off)"),
        (Firecracker, {"seccomp": True}, "Firecracker (seccomp on)"),
        (Crosvm, {}, "crosvm"),
        (CloudHypervisor, {}, "Cloud Hypervisor"),
    ):
        testbed = Testbed()
        hv = testbed.launch(cls, **kwargs)
        try:
            session = testbed.vmsh().attach(hv.pid)
            ok = session.console.run_command("echo ok").output == "ok"
            rows.append((label, "supported" if ok else "broken", ""))
        except HypervisorNotSupportedError as exc:
            rows.append((label, "unsupported", str(exc)))
        except SeccompViolationError as exc:
            rows.append((label, "blocked-by-seccomp", str(exc)))
    # The two future-work extensions, run for the record.
    testbed = Testbed()
    hv = testbed.launch_cloud_hypervisor()
    session = testbed.vmsh().attach(hv.pid, transport="pci")
    ok = session.console.run_command("echo ok").output == "ok"
    rows.append((
        "Cloud Hypervisor [ext: PCI/MSI-X]",
        "supported" if ok else "broken",
        "VirtIO-PCI transport, KVM_IRQFD_MSI",
    ))
    testbed = Testbed()
    hv = testbed.launch_firecracker(seccomp=True, vmsh_seccomp_profile=True)
    session = testbed.vmsh().attach(hv.pid, seccomp_aware=True)
    ok = session.console.run_command("echo ok").output == "ok"
    rows.append((
        "Firecracker [ext: seccomp-aware]",
        "supported" if ok else "broken",
        "per-syscall thread selection, sandbox intact",
    ))
    return rows


def test_e2_hypervisor_matrix(benchmark, results_dir):
    rows = benchmark.pedantic(_attach_matrix, rounds=1, iterations=1)
    lines = ["E2  hypervisor support (Table 1)", ""]
    for label, status, detail in rows:
        lines.append(f"{label:28s} {status:20s} {detail}")
    lines += [
        "",
        "paper: QEMU, kvmtool, Firecracker, crosvm supported;",
        "Cloud Hypervisor unsupported (MSI-X-only interrupts);",
        "Firecracker needs its seccomp filter disabled.",
        "[ext] rows show this repo's future-work extensions in action.",
    ]
    write_report(results_dir, "e2_hypervisors", lines)

    status = {label: s for label, s, _ in rows}
    assert status["QEMU"] == "supported"
    assert status["kvmtool"] == "supported"
    assert status["crosvm"] == "supported"
    assert status["Firecracker (seccomp off)"] == "supported"
    assert status["Firecracker (seccomp on)"] == "blocked-by-seccomp"
    assert status["Cloud Hypervisor"] == "unsupported"
    # The extensions close both gaps.
    assert status["Cloud Hypervisor [ext: PCI/MSI-X]"] == "supported"
    assert status["Firecracker [ext: seccomp-aware]"] == "supported"
    benchmark.extra_info["supported"] = sum(
        1 for _, s, _ in rows if s == "supported"
    )


def _kernel_sweep():
    rows = []
    for version in ALL_TESTED_VERSIONS:
        testbed = Testbed()
        hv = testbed.launch_qemu(guest_version=version)
        session = testbed.vmsh().attach(hv.pid)
        ok = session.console.run_command("echo ok").output == "ok"
        rows.append((str(version), session.report.ksymtab_layout, ok))
    return rows


def test_e3_kernel_versions(benchmark, results_dir):
    rows = benchmark.pedantic(_kernel_sweep, rounds=1, iterations=1)
    lines = ["E3  kernel LTS sweep (Table 1)", ""]
    for version, layout, ok in rows:
        lines.append(f"{version:8s} ksymtab={layout:10s} attach={'ok' if ok else 'FAIL'}")
    lines += ["", "paper: v4.4, v4.9, v4.14, v4.19, v5.4, v5.10 all supported."]
    write_report(results_dir, "e3_kernels", lines)

    assert all(ok for _, _, ok in rows)
    assert len(rows) == len(ALL_TESTED_VERSIONS)
    # All three historical ksymtab layouts were encountered and parsed.
    assert {layout for _, layout, _ in rows} == {"absolute", "prel32", "prel32_ns"}
    benchmark.extra_info["kernels_supported"] = len(rows)


# ---------------------------------------------------------------------------
# E2 arch leg (PR 9): the generality matrix across three ISAs
# ---------------------------------------------------------------------------

GENERALITY_ARCHES = ("x86_64", "arm64", "riscv64", "riscv64_sv48")

_VMM_ROWS = (
    ("launch_qemu", {}, {}, "QEMU"),
    ("launch_kvmtool", {}, {}, "kvmtool"),
    ("launch_firecracker", {"seccomp": False}, {}, "Firecracker"),
    ("launch_crosvm", {}, {}, "crosvm"),
    ("launch_cloud_hypervisor", {}, {"transport": "pci"}, "Cloud Hypervisor"),
)

#: VMMs that ship no riscv port (upstream reality, mirrored by the
#: per-flavor SUPPORTED_ARCH_FAMILIES rows).
_NO_RISCV_PORT = {"Firecracker", "Cloud Hypervisor"}


def _walker_reads_boot_ptes(arch, hv, session):
    """The host-side walker, pointed at the *register-encoded* root the
    guest booted with, must resolve kernel text through the PTE bytes
    the guest kernel itself wrote — and the resolved frame must hold
    the same bytes the guest reads virtually."""
    mem = hv.vm.guest_memory()
    vbase = session.report.kernel_vbase
    tr = arch.walker(mem.read_u64).translate(hv.guest.cr3, vbase)
    assert mem.read(tr.paddr, 16) == hv.guest.read_virt(vbase, 16)
    assert "x" in arch.translation_perms(tr)
    root = arch.pt_root_paddr(hv.guest.cr3)
    assert mem.read(root, 4096).strip(b"\x00"), "root table is empty"


def _arch_matrix():
    rows = []
    for arch_name in GENERALITY_ARCHES:
        arch = arch_by_name(arch_name)
        for launch_name, launch_kwargs, attach_kwargs, label in _VMM_ROWS:
            testbed = Testbed(arch=arch_name)
            try:
                hv = getattr(testbed, launch_name)(**launch_kwargs)
            except KvmError as exc:
                rows.append((arch_name, label, "no-port", str(exc)))
                continue
            session = testbed.vmsh().attach(hv.pid, **attach_kwargs)
            ok = session.console.run_command("echo ok").output == "ok"
            _walker_reads_boot_ptes(arch, hv, session)
            rows.append((
                arch_name, label,
                "supported" if ok else "broken",
                session.mmio_mode,
            ))
    return rows


def test_e2_arch_generality_matrix(benchmark, results_dir):
    rows = benchmark.pedantic(_arch_matrix, rounds=1, iterations=1)
    lines = ["E2  arch x hypervisor generality (PR 9)", ""]
    for arch_name, label, status, detail in rows:
        lines.append(f"{arch_name:14s} {label:18s} {status:12s} {detail}")
    lines += [
        "",
        "riscv64 attaches ride wrap_syscall (no ioregionfd port);",
        "Firecracker and Cloud Hypervisor ship no riscv64 port.",
    ]
    write_report(results_dir, "e2_arches", lines)

    status = {(a, l): s for a, l, s, _ in rows}
    for arch_name in GENERALITY_ARCHES:
        for _, _, _, label in _VMM_ROWS:
            expected = (
                "no-port"
                if arch_name.startswith("riscv") and label in _NO_RISCV_PORT
                else "supported"
            )
            assert status[(arch_name, label)] == expected, (arch_name, label)
    # riscv64 attach always rides the wrap_syscall fallback.
    modes = {d for a, _, s, d in rows if a.startswith("riscv") and s == "supported"}
    assert modes == {"wrap_syscall"}
    benchmark.extra_info["arches"] = len(GENERALITY_ARCHES)
    benchmark.extra_info["supported"] = sum(
        1 for _, _, s, _ in rows if s == "supported"
    )


def _riscv_seeded_run(seed):
    """One riscv64 attach + snapshot/restore round trip; returns (the
    span stream's Perfetto export, vcpu register file) for determinism
    checks."""
    testbed = Testbed(arch="riscv64", seed=seed)
    hv = testbed.launch_qemu()
    session = testbed.vmsh().attach(hv.pid)
    assert session.console.run_command("echo det").output == "det"

    vcpu = hv.vm.vcpus[0]
    snap = testbed.snapshot(hv)
    pristine = (dict(vcpu.regs), dict(vcpu.sregs))
    vcpu.regs["x7"] = 0x7777
    vcpu.sregs["sepc"] = 0x1234
    testbed.restore(snap, hv)
    assert (dict(vcpu.regs), dict(vcpu.sregs)) == pristine

    trace = testbed.obs.perfetto_json().encode()
    return trace, (dict(vcpu.regs), dict(vcpu.sregs))


def test_e2_riscv64_runs_are_byte_identical(benchmark, results_dir):
    """Per-seed determinism on the new arch: two identical seeded runs
    produce byte-identical traces and bit-identical register files,
    and the riscv64 vCPU snapshot/restore round-trips exactly."""
    def _pair():
        return _riscv_seeded_run(0x9E), _riscv_seeded_run(0x9E)

    (trace_a, state_a), (trace_b, state_b) = benchmark.pedantic(
        _pair, rounds=1, iterations=1
    )
    assert trace_a == trace_b
    assert state_a == state_b
    assert trace_a  # the run really traced the pipeline
    write_report(results_dir, "e2_riscv_determinism", [
        "E2  riscv64 per-seed determinism (PR 9)",
        "",
        f"trace bytes        {len(trace_a)}",
        "repeat run         byte-identical",
        "snapshot/restore   register file round-trips bit-exactly",
    ])
    benchmark.extra_info["trace_bytes"] = len(trace_a)
