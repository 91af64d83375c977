"""Unit tests for the attach transaction / undo-stack machinery."""

import pytest

from repro.core.txn import AttachTransaction
from repro.obs import Observability
from repro.sim.clock import Clock
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PERMANENT,
    register_fault_site,
)

# these tests drive the txn against made-up step names, so their
# attach.* sites are not in the pipeline's step registry
register_fault_site("attach.two", "attach.go")


class _Host:
    """Minimal host: just the obs hub and fault injector the txn needs."""

    def __init__(self):
        self.obs = Observability(Clock())
        self.faults = FaultInjector(self.obs)


@pytest.fixture
def host():
    return _Host()


def test_rollback_runs_undo_actions_in_lifo_order(host):
    txn = AttachTransaction(host, label="t")
    order = []
    txn.push("a", lambda: order.append("a"))
    txn.push("b", lambda: order.append("b"))
    txn.push("c", lambda: order.append("c"))
    txn.rollback()
    assert order == ["c", "b", "a"]
    assert txn.finished
    assert txn.undo_failures == []


def test_discharged_entries_are_skipped(host):
    txn = AttachTransaction(host, label="t")
    order = []
    txn.push("a", lambda: order.append("a"))
    entry = txn.push("b", lambda: order.append("b"))
    txn.push("c", lambda: order.append("c"))
    assert txn.depth == 3
    txn.discharge(entry)
    assert txn.depth == 2
    txn.rollback()
    assert order == ["c", "a"]


def test_undo_failure_is_recorded_and_unwind_continues(host):
    txn = AttachTransaction(host, label="t")
    order = []

    def boom():
        raise RuntimeError("undo exploded")

    txn.push("first", lambda: order.append("first"))
    txn.push("broken", boom)
    txn.push("last", lambda: order.append("last"))
    txn.rollback()  # must not raise
    assert order == ["last", "first"]
    assert [f.label for f in txn.undo_failures] == ["broken"]
    assert isinstance(txn.undo_failures[0].error, RuntimeError)
    rb = host.obs.spans.find("txn.rollback")[-1]
    assert rb.attrs["undo_failures"] == 1
    failed = [s for s in host.obs.spans.find("txn.undo")
              if s.attrs["status"] != "ok"]
    assert [(s.attrs["action"], s.attrs["status"]) for s in failed] == [
        ("broken", "RuntimeError"),
    ]


def test_commit_discards_stack_and_records_steps(host):
    txn = AttachTransaction(host, label="t")
    order = []
    txn.step("one")
    txn.push("a", lambda: order.append("a"))
    txn.step("two")
    txn.commit()
    assert order == []  # nothing undone
    assert txn.steps_completed == ["one", "two"]
    assert txn.depth == 0
    assert txn.finished
    assert host.obs.spans.find("txn.commit")[-1].attrs["steps"] == 2


def test_step_checks_fault_site_before_any_work(host):
    from repro.errors import PermanentFaultError

    txn = AttachTransaction(host, label="t")
    with host.faults.plan(
        FaultPlan([FaultSpec(site="attach.two", kind=PERMANENT)])
    ):
        txn.step("one")
        with pytest.raises(PermanentFaultError):
            txn.step("two")
        txn.rollback()
    # the failed step is reported, not counted as completed
    assert txn.steps_completed == ["one"]
    rb = host.obs.spans.find("txn.rollback")[-1]
    assert rb.attrs["failed_step"] == "two"


def test_rollback_suspends_fault_injection(host):
    """The chaos plan that failed the attach cannot fail the cleanup."""
    from repro.errors import PermanentFaultError

    txn = AttachTransaction(host, label="t")
    ran = []

    def undo_with_faultable_op():
        host.faults.check("cleanup.op")  # armed permanent fault on this site
        ran.append(True)

    with host.faults.plan(
        FaultPlan(
            [
                FaultSpec(site="cleanup.op", kind=PERMANENT),
                FaultSpec(site="attach.go", kind=PERMANENT),
            ]
        )
    ):
        txn.push("cleanup", undo_with_faultable_op)
        with pytest.raises(PermanentFaultError):
            txn.step("go")
        txn.rollback()
    assert ran == [True]
    assert txn.undo_failures == []
