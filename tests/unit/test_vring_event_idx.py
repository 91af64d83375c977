"""EVENT_IDX ring machinery: layout, need_event math, suppression,
batch publish, and 16-bit index wraparound.

The wraparound tests drive a queue past 65535 submissions so every
running index — ``DriverRing._last_used``, ``DeviceRing._last_avail``,
``DeviceRing._used_idx`` — wraps through 0xFFFF, asserting that no
completion is lost or duplicated on either side of the boundary, with
and without EVENT_IDX negotiated.
"""

import pytest

from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.units import MiB
from repro.virtio.vring import (
    AVAIL_HEADER,
    USED_ELEM_SIZE,
    USED_HEADER,
    DeviceRing,
    DriverRing,
    avail_ring_size,
    used_ring_size,
    vring_need_event,
)

from tests.unit.test_vring import DirectMemory


def _rings(size: int, event_idx: bool):
    mem = DirectMemory(PhysicalMemory(1 * MiB))
    desc, avail, used = 0x1000, 0x8000, 0x9000
    driver = DriverRing(mem, desc, avail, used, size, event_idx=event_idx)
    device = DeviceRing(mem, desc, avail, used, size, event_idx=event_idx,
                        metrics=MetricsRegistry().scope("vring"))
    return mem, driver, device


# -- layout ------------------------------------------------------------------


def test_ring_sizes_unchanged_without_event_idx():
    assert avail_ring_size(8) == AVAIL_HEADER + 16
    assert used_ring_size(8) == USED_HEADER + 8 * USED_ELEM_SIZE


def test_ring_sizes_grow_by_one_u16_with_event_idx():
    assert avail_ring_size(8, event_idx=True) == avail_ring_size(8) + 2
    assert used_ring_size(8, event_idx=True) == used_ring_size(8) + 2


def test_event_field_addresses():
    _mem, driver, device = _rings(8, event_idx=True)
    assert driver.used_event_gpa == driver.avail_gpa + AVAIL_HEADER + 2 * 8
    assert driver.avail_event_gpa == driver.used_gpa + USED_HEADER + 8 * USED_ELEM_SIZE
    assert device.used_event_gpa == driver.used_event_gpa
    assert device.avail_event_gpa == driver.avail_event_gpa


# -- vring_need_event (VirtIO 1.1 2.6.7.2) ----------------------------------


@pytest.mark.parametrize(
    "event, new, old, expected",
    [
        (0, 1, 0, True),            # event exactly at the crossing
        (1, 1, 0, False),           # threshold not yet reached
        (3, 8, 0, True),            # event inside the window
        (7, 8, 0, True),            # event at the window's far edge
        (8, 8, 0, False),           # event not yet crossed (new == event)
        (0xFFFE, 0x0001, 0xFFFD, True),     # window straddles the wrap
        (0x0002, 0x0001, 0xFFFD, False),    # event past a wrapped window
    ],
)
def test_need_event_truth_table(event, new, old, expected):
    assert vring_need_event(event, new, old) is expected


# -- suppression and coalescing ----------------------------------------------


def test_kick_prepare_always_true_without_event_idx():
    _mem, driver, _device = _rings(8, event_idx=False)
    driver.add_chain([(0x4000, 64, False)])
    assert driver.kick_prepare() is True


def test_kick_suppressed_when_device_already_polled():
    """avail_event covering un-kicked chains means: no doorbell needed."""
    _mem, driver, device = _rings(8, event_idx=True)
    driver.add_chain([(0x4000, 64, False)])
    assert driver.kick_prepare() is True       # device has seen nothing
    driver.note_kick()
    # The device polls on its own and publishes how far it looked.
    heads = device.pop_available()
    device.push_used_batch([(heads[0], 0)])
    driver.collect_used()
    driver.add_chain([(0x4000, 64, False)])
    assert driver.kick_prepare() is True       # new chain after its poll
    driver.note_kick()
    popped = device.pop_available()            # device picks it up unkicked
    assert len(popped) == 1
    device.push_used_batch([(popped[0], 0)])
    # avail_event now covers everything published: a would-be kick for
    # the already-consumed window is suppressed.
    assert driver.kick_prepare() is False


def test_interrupt_coalesced_until_used_event_threshold():
    """Sub-batches below the driver's used_event target raise no irq."""
    _mem, driver, device = _rings(8, event_idx=True)
    heads = [driver.add_chain([(0x4000, 64, False)]) for _ in range(4)]
    driver.set_used_event((driver.last_used + 3) & 0xFFFF)  # want the 4th
    driver.note_kick()
    assert device.pop_available() == heads
    assert device.push_used_batch([(heads[0], 0)]) is False
    assert device.push_used_batch([(heads[1], 0), (heads[2], 0)]) is False
    assert device.push_used_batch([(heads[3], 0)]) is True
    completed = driver.collect_used()
    assert [head for head, _ in completed] == heads


def test_whole_batch_publish_interrupts_once():
    _mem, driver, device = _rings(8, event_idx=True)
    heads = [driver.add_chain([(0x4000, 64, False)]) for _ in range(4)]
    driver.set_used_event((driver.last_used + 3) & 0xFFFF)
    assert device.pop_available() == heads
    assert device.push_used_batch([(h, 0) for h in heads]) is True
    assert len(driver.collect_used()) == 4


def test_collect_used_rearms_for_next_completion():
    mem, driver, device = _rings(8, event_idx=True)
    head = driver.add_chain([(0x4000, 64, False)])
    device.pop_available()
    assert device.push_used_batch([(head, 0)]) is True
    driver.collect_used()
    # Re-armed to interrupt on the very next completion.
    assert mem.read_u16(driver.used_event_gpa) == driver.last_used


def test_push_used_batch_without_event_idx_always_interrupts():
    _mem, driver, device = _rings(8, event_idx=False)
    heads = [driver.add_chain([(0x4000, 64, False)]) for _ in range(3)]
    assert device.pop_available() == heads
    assert device.push_used_batch([(h, 0) for h in heads]) is True
    assert len(driver.collect_used()) == 3


def test_empty_batch_is_a_noop():
    _mem, _driver, device = _rings(8, event_idx=True)
    assert device.push_used_batch([]) is False


# -- 16-bit wraparound (the satellite) ---------------------------------------


def _pump_past_wrap(event_idx: bool):
    size, batch = 64, 64
    rounds = (0x10000 // batch) + 2            # 65536 + 128 submissions
    _mem, driver, device = _rings(size, event_idx)
    total = 0
    for _ in range(rounds):
        heads = [driver.add_chain([(0x4000, 64, False)]) for _ in range(batch)]
        if event_idx:
            driver.set_used_event((driver.last_used + batch - 1) & 0xFFFF)
        driver.note_kick()
        popped = device.pop_available()
        assert popped == heads, "avail entries lost or reordered"
        irq = device.push_used_batch([(h, len(heads)) for h in popped])
        assert irq is True                      # threshold is the batch tail
        completed = driver.collect_used()
        assert [h for h, _ in completed] == heads, "completion lost/duplicated"
        total += batch
    assert total > 0xFFFF
    # Every running index wrapped and re-converged.
    assert driver._avail_idx == total & 0xFFFF
    assert driver._last_used == total & 0xFFFF
    assert device._last_avail == total & 0xFFFF
    assert device._used_idx == total & 0xFFFF
    assert driver.free_descriptors == size      # all descriptors recycled
    assert not driver._chain_heads


def test_wraparound_with_event_idx():
    _pump_past_wrap(event_idx=True)


def test_wraparound_without_event_idx():
    _pump_past_wrap(event_idx=False)


def test_interrupt_threshold_across_wrap_boundary():
    """A used_event target sitting past 0xFFFF still fires exactly once."""
    size = 64
    _mem, driver, device = _rings(size, event_idx=True)
    # Walk the indices to just short of the wrap.
    while driver.last_used != 0xFFFE:
        head = driver.add_chain([(0x4000, 64, False)])
        driver.note_kick()
        device.pop_available()
        device.push_used_batch([(head, 0)])
        driver.collect_used()
    heads = [driver.add_chain([(0x4000, 64, False)]) for _ in range(4)]
    driver.set_used_event((driver.last_used + 3) & 0xFFFF)   # target 0x0001
    driver.note_kick()
    assert device.pop_available() == heads
    assert device.push_used_batch([(heads[0], 0)]) is False  # 0xFFFF
    assert device.push_used_batch([(heads[1], 0)]) is False  # 0x0000
    assert device.push_used_batch([(heads[2], 0)]) is False  # 0x0001
    assert device.push_used_batch([(heads[3], 0)]) is True   # crosses target
    assert len(driver.collect_used()) == 4
    assert device._used_idx == 0x0002
