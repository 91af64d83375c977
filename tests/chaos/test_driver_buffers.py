"""Guest driver buffers stay intact when VMSH's device host is scheduled.

With the session's devices serviced by a scheduler task, a guest
interrupt is a deferred wakeup, so one interrupt can harvest several
completions and one send can still be in flight when the next begins.
Each case here batches work that way and checks that every byte lands
in its own buffer: which buffer a chain names is kept by the chain's
``DriverRing`` and nowhere else.  Which batches form depends on the
tie-break seed, so ``benchmarks/run_tier1.sh`` also runs this file on
its second master seed.
"""

from repro.testbed import Testbed

from .conftest import MASTER_SEED


def _scheduled_session(exec_device=False):
    tb = Testbed(seed=MASTER_SEED)
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd",
                               exec_device=exec_device)
    session.start_service(tb.scheduler)
    return tb, hv, session


def _typist(pts, *writes):
    """One scheduler task typing ``writes`` in one turn."""
    for data in writes:
        pts.user_write(data)
    yield "typed"


def _console_output(tb, session, *writes):
    pts = session.device_host.pts
    tb.scheduler.spawn(_typist(pts, *writes), label="typist")
    tb.scheduler.run_until_idle()
    return pts.user_read_all().decode()


def _assert_all_posted(ring, count):
    """``count`` distinct receive buffers are posted, each once."""
    tokens = ring.in_flight_tokens()
    assert len(tokens) == len(set(tokens)) == count


def test_console_rx_batch_reads_each_buffer():
    tb, hv, session = _scheduled_session()
    console = hv.guest.vmsh_console
    output = _console_output(tb, session, b"echo alpha\n", b"echo beta\n")
    assert output == "alpha\nbeta\n"
    _assert_all_posted(console.rx_ring, console.RX_BUFFER_COUNT)
    # Every buffer still carries its own input afterwards.
    for n in range(2 * console.RX_BUFFER_COUNT):
        assert _console_output(tb, session, b"echo %d\n" % n) == f"{n}\n"
    session.detach()


def test_console_tx_sends_in_flight_keep_their_bytes():
    tb, hv, session = _scheduled_session()
    output = _console_output(tb, session, b"echo gamma\necho delta\n")
    assert output == "gamma\ndelta\n"
    # The next sends find both slots collected and reuse them.
    output = _console_output(tb, session, b"echo one\necho two\n")
    assert output == "one\ntwo\n"
    session.detach()


def test_vm_exec_tasks_each_get_their_own_output():
    tb, hv, session = _scheduled_session(exec_device=True)
    ran = []
    driver = hv.guest.vmsh_exec
    executor = driver._executor
    driver.set_executor(lambda argv: ran.append(argv) or executor(argv))
    tasks = [
        tb.scheduler.spawn(session.exec_task(["echo", word]), label=word)
        for word in ("two", "three")
    ]
    two, three = tb.scheduler.run(*tasks)
    assert sorted(ran) == [["echo", "three"], ["echo", "two"]]
    assert (two.output, three.output) == ("two", "three")
    _assert_all_posted(driver.transport.rings[0], 4)
    session.detach()
