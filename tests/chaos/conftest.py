"""Shared fixtures for the chaos suite.

Every chaos test runs against a fresh :class:`~repro.testbed.Testbed`
with a scripted or seed-derived :class:`~repro.sim.faults.FaultPlan`
armed on the host.  ``VMSH_CHAOS_SEED`` selects the master seed for
the derived schedules (``benchmarks/run_tier1.sh`` pins it), so a
failing chaos run can be replayed exactly by exporting the same value.
"""

import os

from repro.replay.invariants import diff_fingerprints, state_fingerprint
from repro.testbed import Testbed

#: Master seed for seed-derived fault schedules ("VMSH" in ASCII).
MASTER_SEED = int(os.environ.get("VMSH_CHAOS_SEED", "0x564D5348"), 0)

#: Every hypervisor flavor the paper targets (Table 1), with the
#: launch/attach arguments that make a *fault-free* attach succeed:
#: Firecracker must run without its seccomp filters (§6.2) and Cloud
#: Hypervisor's MSI-X-only irqchip needs the PCI transport.
FLAVORS = {
    "qemu": ("launch_qemu", {}, {}),
    "kvmtool": ("launch_kvmtool", {}, {}),
    "firecracker": ("launch_firecracker", {"seccomp": False}, {}),
    "crosvm": ("launch_crosvm", {}, {}),
    "cloud_hypervisor": ("launch_cloud_hypervisor", {}, {"transport": "pci"}),
    # The riscv64 leg of the matrix (PR 9): the same fault grid on the
    # third ISA, where attach always rides the wrap_syscall fallback.
    "qemu_riscv64": ("launch_qemu", {}, {}),
}

#: guest architecture per flavor (absent = x86_64); mirrors
#: ``repro.replay.scenarios.FLAVOR_ARCH`` so the chaos matrix and the
#: fuzzer agree on what a flavor means.
FLAVOR_ARCH = {
    "qemu_riscv64": "riscv64",
}


def launch_flavor(flavor: str, ioregionfd: bool = True):
    """Fresh testbed + booted hypervisor of ``flavor``.

    Returns ``(tb, hv, attach_kwargs)``.
    """
    launch_name, launch_kwargs, attach_kwargs = FLAVORS[flavor]
    tb = Testbed(
        ioregionfd=ioregionfd,
        arch=FLAVOR_ARCH.get(flavor, "x86_64"),
    )
    hv = getattr(tb, launch_name)(**launch_kwargs)
    return tb, hv, dict(attach_kwargs)


# The fingerprint lives in the replay package so the fuzzer's
# invariant checks and the chaos matrix enforce the same definition
# of "uncorrupted"; these names stay as the suite's historical API.
snapshot_state = state_fingerprint


def assert_restored(before, after):
    """Field-by-field comparison so a mismatch names what leaked."""
    assert before.keys() == after.keys()
    leaks = diff_fingerprints(before, after)
    assert not leaks, f"state leaked across rollback: {leaks}"
