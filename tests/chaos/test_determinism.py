"""Same master seed => same fault schedule, same span stream, same outcome.

The whole point of deterministic chaos: a failure seen once is a
failure reproducible forever.  Two independently-built testbeds given
the same seed-derived plan must produce *identical* fired-fault logs
and identical span streams (the virtual clock, per-host pid/tid
counters and seeded RNG streams make the simulation replayable).
"""

from repro.sim.faults import FaultPlan

from tests.chaos.conftest import MASTER_SEED, launch_flavor


def _run_once(flavor):
    tb, hv, attach_kwargs = launch_flavor(flavor)
    vmsh = tb.vmsh()
    plan = FaultPlan.derive(f"chaos:{flavor}", master_seed=MASTER_SEED)
    tb.host.faults.arm(plan)
    try:
        vmsh.attach(hv.pid, retries=3, **attach_kwargs)
        outcome = "attached"
    except Exception as err:  # noqa: BLE001 - outcome identity is the assertion
        outcome = f"{type(err).__name__}:{err}"
    finally:
        fired = list(tb.host.faults.fired)
        tb.host.faults.disarm()
    return plan, outcome, fired, tb.obs.perfetto_json()


def test_identical_seed_identical_run():
    plan_a, outcome_a, fired_a, events_a = _run_once("qemu")
    plan_b, outcome_b, fired_b, events_b = _run_once("qemu")
    assert plan_a.specs == plan_b.specs
    assert outcome_a == outcome_b
    assert fired_a == fired_b
    # The Perfetto export renders every span and instant: equal text is
    # bit-identity of what happened and when (virtual time) it happened.
    assert events_a == events_b


def test_identical_seed_identical_run_across_flavors():
    for flavor in ("firecracker", "cloud_hypervisor"):
        _, outcome_a, fired_a, events_a = _run_once(flavor)
        _, outcome_b, fired_b, events_b = _run_once(flavor)
        assert outcome_a == outcome_b, flavor
        assert fired_a == fired_b, flavor
        assert events_a == events_b, flavor


def test_different_labels_draw_different_schedules():
    plans = {
        flavor: FaultPlan.derive(f"chaos:{flavor}", master_seed=MASTER_SEED)
        for flavor in ("qemu", "kvmtool", "crosvm")
    }
    specs = [tuple(p.specs) for p in plans.values()]
    assert len(set(specs)) == len(specs)
