"""Pinned-seed riscv64 chaos case (PR 9 satellite).

The full flavor x step x kind grid already covers ``qemu_riscv64``
through the chaos matrix; this file pins one deep case forever: a
*permanent* fault mid-pipeline on a riscv64 guest — after the attach
has written real Sv39 PTEs into guest RAM — must roll back to a
bit-identical pre-attach state, including the satp-addressed root
table page, and the whole run must be byte-for-byte reproducible from
its seed (trace and fingerprints alike).
"""

import pytest

from repro.arch import RISCV64, RISCV64_SV48, SATP_MODE_SV39
from repro.errors import PermanentFaultError
from repro.replay.scenarios import AttachCase, run_attach_case
from repro.sim.faults import FaultPlan, FaultSpec, PERMANENT
from repro.testbed import Testbed

from tests.chaos.conftest import assert_restored, launch_flavor, snapshot_state

#: the pinned master seed for this case ("RISC" in ASCII) — never bump
#: it: the point is that this exact schedule stays green forever.
PINNED_SEED = 0x52495343

#: a step that fires after the loader has already built page tables in
#: guest RAM, so the rollback has real Sv39 PTE bytes to undo.
MID_PIPELINE_STEP = "attach.load_library"


def test_riscv64_permanent_fault_rolls_back_bit_identical():
    tb, hv, attach_kwargs = launch_flavor("qemu_riscv64")
    vmsh = tb.vmsh()
    before = snapshot_state(tb, hv, vmsh)
    # The fingerprint's root-table page really is satp-addressed.
    satp = hv.vm.vcpus[0].sregs["satp"]
    assert satp >> 60 == SATP_MODE_SV39
    assert before["pt_root"] == hv.vm.guest_memory().read(
        RISCV64.pt_root_paddr(satp), 4096
    )

    plan = FaultPlan(
        [FaultSpec(site=MID_PIPELINE_STEP, kind=PERMANENT)],
        label="riscv64:pinned",
        master_seed=PINNED_SEED,
    )
    with tb.host.faults.plan(plan):
        with pytest.raises(PermanentFaultError) as exc:
            vmsh.attach(hv.pid, retries=2, **attach_kwargs)
    assert exc.value.site == MID_PIPELINE_STEP

    assert_restored(before, snapshot_state(tb, hv, vmsh))
    assert hv.guest.panicked is None
    # The rolled-back guest still serves a clean attach afterwards.
    session = vmsh.attach(hv.pid, **attach_kwargs)
    assert session.mmio_mode == "wrap_syscall"
    assert session.console.run_command("echo back").output == "back"


def test_riscv64_sv48_permanent_fault_rolls_back_bit_identical():
    """Same pinned case on the four-level Sv48 variant."""
    tb = Testbed(arch="riscv64_sv48")
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    before = snapshot_state(tb, hv, vmsh)
    assert before["pt_root"] == hv.vm.guest_memory().read(
        RISCV64_SV48.pt_root_paddr(hv.guest.cr3), 4096
    )
    plan = FaultPlan(
        [FaultSpec(site=MID_PIPELINE_STEP, kind=PERMANENT)],
        label="riscv64_sv48:pinned",
        master_seed=PINNED_SEED,
    )
    with tb.host.faults.plan(plan):
        with pytest.raises(PermanentFaultError):
            vmsh.attach(hv.pid, retries=2)
    assert_restored(before, snapshot_state(tb, hv, vmsh))
    assert tb.vmsh().attach(hv.pid).console.run_command("echo ok").output == "ok"


#: the same case as the fuzzer would draw it — replayable from JSON.
PINNED_CASE = AttachCase(
    seed=PINNED_SEED,
    flavor="qemu_riscv64",
    specs=(
        {"site": MID_PIPELINE_STEP, "kind": PERMANENT},
    ),
    retries=1,
)


def _run_pinned():
    result = run_attach_case(PINNED_CASE)
    tb = result.testbed
    trace = tb.obs.perfetto_json()
    return result, trace


def test_riscv64_pinned_case_is_deterministic():
    """Two executions of the pinned case are byte-identical: same
    outcome, no invariant violations, and the very same trace."""
    first, trace_a = _run_pinned()
    second, trace_b = _run_pinned()
    assert first.outcome == second.outcome == "failed:PermanentFaultError"
    assert first.violations == second.violations == []
    assert first.coverage == second.coverage
    assert trace_a == trace_b
    assert trace_a  # non-empty: the run actually traced the pipeline


def test_riscv64_pinned_case_roundtrips_as_json():
    """The corpus serialisation carries the riscv64 case unchanged."""
    assert AttachCase.from_json(PINNED_CASE.to_json()) == PINNED_CASE
