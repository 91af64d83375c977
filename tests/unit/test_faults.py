"""Unit tests for the deterministic fault-injection substrate."""

import pytest

from repro.errors import (
    FaultInjectedError,
    PermanentFaultError,
    SeccompViolationError,
    TransientFaultError,
)
from repro.sim.faults import (
    DEFAULT_CHAOS_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PERMANENT,
    TRANSIENT,
    known_fault_sites,
    register_fault_site,
    validate_fault_site,
)
from repro.obs import Observability
from repro.sim.clock import Clock


def _injector():
    return FaultInjector(Observability(Clock()))


# -- FaultSpec --------------------------------------------------------------

def test_spec_rejects_bad_kind_and_indices():
    with pytest.raises(ValueError):
        FaultSpec(site="x", kind="sometimes")
    with pytest.raises(ValueError):
        FaultSpec(site="x", occurrence=0)
    with pytest.raises(ValueError):
        FaultSpec(site="x", count=0)


def test_transient_matches_window_then_heals():
    spec = FaultSpec(site="s", occurrence=2, kind=TRANSIENT, count=2)
    assert [spec.matches(h) for h in (1, 2, 3, 4, 5)] == [
        False, True, True, False, False
    ]


def test_permanent_matches_forever():
    spec = FaultSpec(site="s", occurrence=3, kind=PERMANENT)
    assert [spec.matches(h) for h in (1, 2, 3, 4, 100)] == [
        False, False, True, True, True
    ]


# -- FaultPlan.derive -------------------------------------------------------

def test_derive_is_deterministic_per_label_and_seed():
    a = FaultPlan.derive("chaos:qemu", master_seed=7)
    b = FaultPlan.derive("chaos:qemu", master_seed=7)
    assert a.specs == b.specs
    assert all(s.site in DEFAULT_CHAOS_SITES for s in a.specs)


def test_derive_varies_with_label_and_seed():
    base = FaultPlan.derive("chaos:qemu", master_seed=7, faults=6)
    other_label = FaultPlan.derive("chaos:crosvm", master_seed=7, faults=6)
    other_seed = FaultPlan.derive("chaos:qemu", master_seed=8, faults=6)
    assert base.specs != other_label.specs
    assert base.specs != other_seed.specs


def test_plan_mentions_prefix():
    plan = FaultPlan([FaultSpec(site="physmem.read")])
    assert plan.mentions("physmem.")
    assert not plan.mentions("ptrace.")


# -- FaultInjector ----------------------------------------------------------

def test_disarmed_injector_is_inert():
    inj = _injector()
    for _ in range(10):
        inj.check("anything")
    assert not inj.armed
    assert inj.fired == []


def test_transient_fires_once_then_heals():
    inj = _injector()
    with inj.plan(FaultPlan([FaultSpec(site="op", occurrence=2)])):
        inj.check("op")
        with pytest.raises(TransientFaultError) as exc:
            inj.check("op")
        inj.check("op")  # healed
        assert exc.value.site == "op"
        assert exc.value.occurrence == 2
        assert isinstance(exc.value, FaultInjectedError)
        assert [f.site for f in inj.fired] == ["op"]
    assert not inj.armed


def test_permanent_fires_on_every_hit():
    inj = _injector()
    with inj.plan(FaultPlan([FaultSpec(site="op", kind=PERMANENT)])):
        for _ in range(3):
            with pytest.raises(PermanentFaultError):
                inj.check("op")
        assert len(inj.fired) == 3


def test_sites_are_counted_independently():
    inj = _injector()
    with inj.plan(FaultPlan([FaultSpec(site="b", occurrence=2)])):
        inj.check("a")
        inj.check("b")
        inj.check("a")
        with pytest.raises(TransientFaultError):
            inj.check("b")
        assert inj.hits("a") == 2
        assert inj.hits("b") == 2


def test_suspended_masks_injection():
    inj = _injector()
    with inj.plan(FaultPlan([FaultSpec(site="op", kind=PERMANENT)])):
        with inj.suspended():
            inj.check("op")       # would fire if not suspended
            with inj.suspended():
                inj.check("op")   # nesting
        with pytest.raises(PermanentFaultError):
            inj.check("op")
    assert len(inj.fired) == 1


def test_seccomp_kill_flavor_raises_seccomp_error():
    inj = _injector()
    spec = FaultSpec(site="seccomp.injected", kind=PERMANENT, flavor="seccomp_kill")
    with inj.plan(FaultPlan([spec])):
        with pytest.raises(SeccompViolationError):
            inj.check("seccomp.injected", syscall="eventfd2", thread="fc_vmm")


def test_arm_installs_and_disarm_removes_physmem_hook():
    from repro.mem.physmem import PhysicalMemory

    inj = _injector()
    assert PhysicalMemory.fault_check is None
    with inj.plan(FaultPlan([FaultSpec(site="physmem.write", kind=PERMANENT)])):
        assert PhysicalMemory.fault_check is not None
        mem = PhysicalMemory(4096)
        mem.read(0, 8)  # reads unaffected by a write-only plan
        with pytest.raises(PermanentFaultError):
            mem.write(0, b"x")
    assert PhysicalMemory.fault_check is None
    mem.write(0, b"x")  # disarmed: writes work again


def test_rearm_resets_hits_and_fired():
    inj = _injector()
    inj.arm(FaultPlan([FaultSpec(site="op", occurrence=1)]))
    with pytest.raises(TransientFaultError):
        inj.check("op")
    inj.arm(FaultPlan([FaultSpec(site="op", occurrence=1)]))
    assert inj.hits("op") == 0
    assert inj.fired == []
    with pytest.raises(TransientFaultError):
        inj.check("op")
    inj.disarm()


def test_flag_quirk_records_without_raising():
    register_fault_site("quirk.x")
    inj = _injector()
    with inj.plan(FaultPlan([FaultSpec(site="quirk.x", kind=PERMANENT)])):
        assert inj.flag("quirk.x") is True
        assert inj.flag("quirk.other") is False
        assert [f.site for f in inj.fired] == ["quirk.x"]
    assert inj.flag("quirk.x") is False  # disarmed


# -- Known-site registry ----------------------------------------------------

def test_arm_rejects_typoed_attach_site():
    from repro.errors import UnknownFaultSiteError

    inj = _injector()
    with pytest.raises(UnknownFaultSiteError, match="attach.setup_irqfd"):
        inj.arm(FaultPlan([FaultSpec(site="attach.setup_irqfd")]))
    assert not inj.armed


def test_arm_rejects_misshapen_ioctl_and_syscall_sites():
    from repro.errors import UnknownFaultSiteError

    inj = _injector()
    # lowercase request name: the classic ioctl typo
    with pytest.raises(UnknownFaultSiteError):
        inj.arm(FaultPlan([FaultSpec(site="ioctl.kvm_irqfd")]))
    # uppercase syscall name: family shapes are crossed
    with pytest.raises(UnknownFaultSiteError):
        inj.arm(FaultPlan([FaultSpec(site="syscall.EVENTFD2")]))


def test_every_default_chaos_site_validates():
    for site in DEFAULT_CHAOS_SITES:
        validate_fault_site(site)
    for site in known_fault_sites():
        validate_fault_site(site)


def test_registered_site_passes_validation():
    from repro.errors import UnknownFaultSiteError

    with pytest.raises(UnknownFaultSiteError):
        validate_fault_site("quirk.bespoke_for_this_test")
    register_fault_site("quirk.bespoke_for_this_test")
    validate_fault_site("quirk.bespoke_for_this_test")
    assert "quirk.bespoke_for_this_test" in known_fault_sites()


def test_unreserved_sites_stay_free_form():
    # bespoke harness sites outside the reserved families arm freely
    _injector().arm(FaultPlan([FaultSpec(site="cleanup.op")]))
