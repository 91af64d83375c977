"""Property tests: virtqueue chains survive arbitrary traffic."""

from hypothesis import given, settings, strategies as st

from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.units import MiB
from repro.virtio.vring import DeviceRing, DriverRing

from tests.unit.test_vring import DirectMemory


chains = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0x10000, max_value=0xF0000),
            st.integers(min_value=1, max_value=8192),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=12,
)


@given(batches=st.lists(chains, min_size=1, max_size=4))
@settings(max_examples=40)
def test_chains_roundtrip_in_order(batches):
    """Whatever the driver publishes, the device reads back verbatim,
    and completions recycle every descriptor."""
    mem = DirectMemory(PhysicalMemory(1 * MiB))
    driver = DriverRing(mem, 0x1000, 0x3000, 0x4000, 64)
    device = DeviceRing(mem, 0x1000, 0x3000, 0x4000, 64,
                        metrics=MetricsRegistry().scope("vring"))
    for batch in batches:
        published = {}
        for chain_spec in batch:
            if len(chain_spec) > driver.free_descriptors:
                continue
            head = driver.add_chain(chain_spec)
            published[head] = chain_spec
        heads = device.pop_available()
        assert list(published) == heads
        table = device.read_table()
        for head in heads:
            read_back = [
                (d.addr, d.length, d.device_writable)
                for d in device.read_chain(head, table)
            ]
            assert read_back == list(published[head])
            device.push_used_batch([(head, 1)])
        completed = dict(driver.collect_used())
        assert set(completed) == set(published)
    assert driver.free_descriptors == 64


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30)
)
@settings(max_examples=30)
def test_free_descriptor_accounting(sizes):
    mem = DirectMemory(PhysicalMemory(1 * MiB))
    driver = DriverRing(mem, 0x1000, 0x3000, 0x4000, 16)
    device = DeviceRing(mem, 0x1000, 0x3000, 0x4000, 16,
                        metrics=MetricsRegistry().scope("vring"))
    outstanding = 0
    for size in sizes:
        if size > driver.free_descriptors:
            continue
        driver.add_chain([(0x10000, 1, False)] * size)
        outstanding += size
        assert driver.free_descriptors == 16 - outstanding
        if outstanding > 8:
            for head in device.pop_available():
                device.push_used_batch([(head, 0)])
            driver.collect_used()
            outstanding = 0
