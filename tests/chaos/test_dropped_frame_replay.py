"""A dropped load-generator frame is pinned where it happened.

The traffic scenario records its whole span stream: the data path's
``net.window`` spans and every scheduler turn, not only the control
plane.  Replaying the recording with one request frame lost on the
fabric must therefore diverge at the first span the lost frame would
have caused — the guest NIC window that carried its response — and
right after the drop, not when the request times out half a second
later.
"""

import pytest

from repro.replay.recording import RunRecorder
from repro.replay.replayer import Replayer
from repro.replay.scenarios import run_scenario
from repro.sim.netfab import NetFabric
from repro.units import MSEC

PARAMS = {"seed": 0x564D5348}
#: the load generator's request frame the replay loses
DROPPED_FRAME = 40


@pytest.fixture(scope="module")
def recording():
    recorder = RunRecorder("traffic", PARAMS)
    result = run_scenario("traffic", PARAMS, on_testbed=recorder.attach)
    return recorder.finish(outcome=result.outcome)


def test_dropped_frame_diverges_at_its_response_window(recording, monkeypatch):
    send_one = NetFabric._send_one
    sent = []
    drops = []

    def lossy_send_one(fabric, src, dst, frame):
        if src.name.endswith("-loadgen"):
            sent.append(frame)
            if len(sent) == DROPPED_FRAME:
                drops.append(fabric.scheduler.now)
                return
        send_one(fabric, src, dst, frame)

    monkeypatch.setattr(NetFabric, "_send_one", lossy_send_one)
    report = Replayer().replay(recording)

    assert len(drops) == 1
    dropped_at = drops[0]
    assert not report.matched
    divergence = report.divergence
    assert divergence.kind == "mismatch"
    time_ns, kind, _sid, _parent, track, name, _attrs = divergence.recorded
    assert (kind, track, name) == (
        "open", "net:eth0@52:54:00:00:00:06", "net.window"
    )
    # The recorded run opened that window after the drop: the frame's
    # response would have gone out through it.
    assert time_ns == 137_482_782
    assert dropped_at < time_ns
    assert recording.events[divergence.index] == divergence.recorded
    # Detected within half a millisecond of virtual time of the drop,
    # long before the lost request's timeout fires.
    assert 0 <= divergence.time_ns - dropped_at < MSEC // 2
