"""The traced run: per-layer attribution measured from outside the program.

A traced run repeats the untraced run's workload, seed and size with
four instruments switched on.  None of them edits the program; each
wraps a public call or observes a public object:

* **Virtual time by cost.**  Every public :class:`CostModel` method is
  wrapped; a ``Clock.subscribe`` observer charges each clock advance to
  the innermost wrapped method on the stack.  Advances no method
  claims are split by who made them: the scheduler loop jumping to the
  next timed event (``sched_wait``, i.e. the modelled system waiting on
  a timer) or anything else (``unattributed``).
* **Attach steps.**  ``AttachTransaction.step``/``commit``/``rollback``
  are wrapped, so each of the eleven attach steps gets its virtual and
  host duration.  When an attach runs as a scheduler task wrapped by
  :meth:`TraceProbe.task`, its step timers stop while the task is
  suspended, so work other tasks do meanwhile is not charged to it.
* **Host self time by layer.**  ``cProfile`` runs over the timed phase
  only; self time and call counts are rolled up by module path into the
  layers of :data:`LAYERS`.  Time in builtins and the standard library
  goes to the layer that called them.
* **Spans.**  The workloads record their own spans (name, op id,
  parent, start/end on both clocks) around the calls they make into
  each layer.  They are kept in memory and written once, as Perfetto
  JSON, when the run ends.

The untraced run uses :class:`NullProbe`, whose hooks do nothing.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from repro.core.txn import AttachTransaction
from repro.obs.export import validate_trace_events
from repro.sim.costs import CostModel

#: the layers host time is rolled up into, named after the modules
LAYERS = (
    "core.ksymtab", "core.snapshot", "core", "host", "kvm", "mem",
    "virtio.memio", "virtio.vring", "virtio.blk", "virtio.net", "virtio",
    "guestos", "image", "hypervisors", "sim.sched", "sim.netfab", "sim",
    "obs", "usecases", "other",
)

#: modules that are layers of their own inside a package
_MODULE_LAYERS = {
    "core/ksymtab.py": "core.ksymtab",
    "core/snapshot.py": "core.snapshot",
    "virtio/memio.py": "virtio.memio",
    "virtio/vring.py": "virtio.vring",
    "virtio/blk.py": "virtio.blk",
    "virtio/net.py": "virtio.net",
    "sim/sched.py": "sim.sched",
    "sim/netfab.py": "sim.netfab",
}

_PACKAGE_LAYERS = frozenset(
    ("core", "host", "kvm", "mem", "virtio", "guestos", "image",
     "hypervisors", "sim", "obs", "usecases")
)

#: CostModel methods that advance the clock in at least one workload;
#: each becomes a ``virt.<method>_ms`` metric
VIRT_METHODS = (
    "syscall", "context_switch", "ptrace_stop", "vmexit", "irq_inject",
    "ioregionfd_message", "memcpy", "procvm_vectored", "guest_block_submit",
    "guest_fs_op", "pagecache_insert", "tty_turnaround", "shell_exec",
    "guest_net_submit", "vmsh_console_hop",
)

#: clock advances no CostModel method made: the scheduler waiting on a
#: timer, the benchmark's load generator waiting for the next arrival,
#: and anything else
UNCLAIMED = ("sched_wait", "loadgen_idle", "unattributed")

_SCHED_FILE = os.path.join("sim", "sched.py")


def layer_of(path: str, repro_root: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside the program."""
    if not path.startswith(repro_root):
        return None
    rel = path[len(repro_root):].replace(os.sep, "/")
    if rel in _MODULE_LAYERS:
        return _MODULE_LAYERS[rel]
    package = rel.split("/", 1)[0]
    return package if package in _PACKAGE_LAYERS else "other"


class NullProbe:
    """The untraced run's probe: every hook is a no-op."""

    traced = False

    def watch(self, testbed) -> None:
        pass

    def begin(self, clock, name: str, op: int, parent=None, track="ops"):
        return None

    def end(self, span) -> None:
        pass

    def set_parent(self, span) -> None:
        pass

    def attributed_ns(self) -> Optional[int]:
        return None

    def claim(self, name: str):
        """A context whose clock advances are charged to ``name``."""
        return nullcontext()

    def task(self, gen):
        """``gen``, to be spawned as a scheduler task."""
        return gen

    @contextmanager
    def timed(self):
        yield


class TraceProbe(NullProbe):
    """Instruments for the traced run (see the module docstring).

    Constructing one patches :class:`CostModel` and
    :class:`AttachTransaction` for the rest of the process, so it must
    happen before the first testbed exists: bound methods captured
    earlier would bypass the wrappers.
    """

    traced = True

    def __init__(self, max_spans: int = 200_000) -> None:
        self.active = False
        self.virt: Dict[str, int] = defaultdict(int)
        self.steps: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.max_spans = max_spans
        self.spans: List[list] = []
        self.spans_dropped = 0
        self.profile = cProfile.Profile()
        self._stack: List[str] = []
        #: open attach step per transaction: [name, clock, virtual start,
        #: host start, span, owning task, virtual ns, host ns, running]
        self._open_steps: Dict[int, list] = {}
        #: the :meth:`task` wrapper whose generator is running, if any
        self._running_task = None
        self._parent = None
        self._patch_costs()
        self._patch_steps()

    # -- instruments ---------------------------------------------------------

    def _patch_costs(self) -> None:
        stack = self._stack
        for name in dir(CostModel):
            method = getattr(CostModel, name)
            if name.startswith("_") or not callable(method):
                continue

            def wrapper(model, *args, _name=name, _method=method, **kwargs):
                stack.append(_name)
                try:
                    return _method(model, *args, **kwargs)
                finally:
                    stack.pop()

            setattr(CostModel, name, wrapper)

    def _patch_steps(self) -> None:
        probe = self
        step, commit = AttachTransaction.step, AttachTransaction.commit
        rollback = AttachTransaction.rollback

        def traced_step(txn, name, **detail):
            probe._close_step(txn)
            clock = txn.host.clock
            parent = probe._parent
            op = probe.spans[parent][1] if parent is not None else None
            span = probe.begin(clock, f"attach.step.{name}", op, parent,
                               track="attach-steps")
            probe._open_steps[id(txn)] = [
                name, clock, clock.now, time.perf_counter_ns(), span,
                probe._running_task, 0, 0, True,
            ]
            return step(txn, name, **detail)

        def traced_commit(txn):
            probe._close_step(txn)
            return commit(txn)

        def traced_rollback(txn):
            probe._close_step(txn)
            return rollback(txn)

        AttachTransaction.step = traced_step
        AttachTransaction.commit = traced_commit
        AttachTransaction.rollback = traced_rollback

    def _close_step(self, txn) -> None:
        opened = self._open_steps.pop(id(txn), None)
        if opened is None:
            return
        self._stop_step(opened)
        self.end(opened[4])
        if self.active:
            totals = self.steps[opened[0]]
            totals[0] += opened[6]
            totals[1] += opened[7]

    @staticmethod
    def _stop_step(opened: list) -> None:
        if opened[8]:
            opened[6] += opened[1].now - opened[2]
            opened[7] += time.perf_counter_ns() - opened[3]
            opened[8] = False

    def _switch(self, owner, running: bool) -> None:
        """Stop or restart the timers of the steps ``owner`` opened."""
        for opened in self._open_steps.values():
            if opened[5] is not owner:
                continue
            if not running:
                self._stop_step(opened)
            elif not opened[8]:
                opened[2] = opened[1].now
                opened[3] = time.perf_counter_ns()
                opened[8] = True

    def task(self, gen):
        """Wrap the generator ``gen`` before spawning it as a scheduler
        task: the attach steps it opens are timed only while it runs,
        not while it is suspended and other tasks run."""
        owner = object()
        value, error = None, None
        while True:
            outer, self._running_task = self._running_task, owner
            self._switch(owner, running=True)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._switch(owner, running=False)
                self._running_task = outer
            try:
                value, error = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - hand it to gen
                value, error = None, exc

    @contextmanager
    def claim(self, name: str):
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def watch(self, testbed) -> None:
        testbed.clock.subscribe(self._on_advance)

    def _on_advance(self, old_ns: int, new_ns: int) -> None:
        if not self.active:
            return
        if self._stack:
            key = self._stack[-1]
        else:
            # frame 0 is this observer, 1 is Clock.advance, 2 its caller
            caller = sys._getframe(2).f_code.co_filename
            key = "sched_wait" if caller.endswith(_SCHED_FILE) else "unattributed"
        self.virt[key] += new_ns - old_ns

    def attributed_ns(self) -> Optional[int]:
        """Virtual ns attributed so far in the timed phase."""
        return self.virt_total() if self.active else None

    def virt_total(self) -> int:
        return sum(self.virt.values())

    @contextmanager
    def timed(self):
        self.virt.clear()
        self.steps.clear()
        self.active = True
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self.active = False

    # -- spans ---------------------------------------------------------------

    def begin(self, clock, name: str, op: int, parent=None, track="ops"):
        return self.record(clock, name, op, parent, track, clock.now, None,
                           time.perf_counter_ns(), None)

    def record(self, clock, name, op, parent, track, v0, v1, h0, h1):
        """Keep one span; ``v1``/``h1`` of ``None`` leave it open."""
        if not self.active:
            return None
        if len(self.spans) >= self.max_spans:
            self.spans_dropped += 1
            return None
        self.spans.append([name, op, parent, track, clock, v0, v1, h0, h1])
        return len(self.spans) - 1

    def end(self, span) -> None:
        if span is None:
            return
        record = self.spans[span]
        record[6] = record[4].now
        record[8] = time.perf_counter_ns()

    def set_parent(self, span) -> None:
        """Spans the attach-step wrapper opens nest under ``span``."""
        self._parent = span

    def perfetto(self) -> dict:
        """The recorded spans as a Chrome/Perfetto trace-event object.

        ``ts``/``dur`` are on the virtual clock (µs); the host clock
        rides in ``args``.
        """
        tids: Dict[str, int] = {}
        events = []
        for index, (name, op, parent, track, _clock, v0, v1, h0, h1) in \
                enumerate(self.spans):
            if v1 is None:
                continue
            tid = tids.setdefault(track, len(tids) + 1)
            args = {"sid": index, "op": op,
                    "host_ts_us": h0 / 1000, "host_dur_us": (h1 - h0) / 1000}
            if parent is not None:
                args["parent_sid"] = parent
            events.append({"name": name, "cat": track, "ph": "X", "pid": 1,
                           "tid": tid, "ts": v0 / 1000,
                           "dur": (v1 - v0) / 1000, "args": args})
        meta = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": track}} for track, tid in tids.items()]
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ns",
            "otherData": {"clock": "virtual", "spans": len(events),
                          "dropped_spans": self.spans_dropped},
        }

    def export(self, path: str) -> List[str]:
        """Write the Perfetto trace once; returns schema problems."""
        trace = self.perfetto()
        problems = validate_trace_events(trace)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(trace, fh)
        return problems

    # -- roll-ups ------------------------------------------------------------

    #: passes of the caller-inheritance fixed point (call chains through
    #: library code are far shorter)
    INHERIT_PASSES = 20

    def layer_rollup(self, repro_root: str) -> Dict[str, Dict[str, float]]:
        """cProfile self time (ms) and call counts per layer.

        A function outside the program (a builtin, the standard library,
        this benchmark) inherits its callers' layers: its self time is
        split by each call edge's self time, its calls by each edge's
        call count (so call counts stay deterministic).  Recursion among
        such functions (``copy.deepcopy``) is resolved by iterating to a
        fixed point; what no program code calls stays ``other``.
        """
        stats = pstats.Stats(self.profile).stats
        funcs = sorted(stats)
        own = {func: layer_of(func[0], repro_root) for func in funcs}
        foreign = [func for func in funcs if own[func] is None]
        result = {layer: {"host_self_ms": 0.0, "calls": 0.0} for layer in LAYERS}
        # stats entries are (cc, nc, tt, ct, callers); caller edges are
        # (nc, cc, tt, ct): weigh self time by tt, calls by nc
        for column, entry_index, edge_index, scale in (
            ("host_self_ms", 2, 2, 1000.0), ("calls", 1, 0, 1.0),
        ):
            share: Dict[tuple, Dict[str, float]] = {}
            for _ in range(self.INHERIT_PASSES):
                for func in foreign:
                    mix: Dict[str, float] = defaultdict(float)
                    for caller, edge in sorted(stats[func][4].items()):
                        layer = own.get(caller)
                        parts = {layer: 1.0} if layer else share.get(caller)
                        for name, part in (parts or {}).items():
                            mix[name] += edge[edge_index] * part
                    total = sum(mix.values())
                    if total:
                        share[func] = {k: v / total for k, v in mix.items()}
            for func in funcs:
                value = stats[func][entry_index] * scale
                parts = {own[func]: 1.0} if own[func] else share.get(func)
                for name, part in (parts or {"other": 1.0}).items():
                    result[name][column] += value * part
        for layer in result.values():
            layer["calls"] = round(layer["calls"])
        return result
