"""Calibrated cost model for the simulated host/guest stack.

The original paper measures a real Intel i9-9900K + NVMe P4600 testbed.
We replace the hardware with a cost model that charges virtual time for
the *mechanisms* the paper identifies as performance-relevant:

* VMEXITs and interrupt injection (every VirtIO kick/completion),
* host context switches (qemu-blk does 2 per request, vmsh-blk 4 —
  the paper measures "twice as many context switches" for vmsh-blk),
* ptrace stops (the ``wrap_syscall`` dispatch interposes on every
  ``KVM_RUN`` return of the hypervisor — the 6x IOPS hit in Fig. 6b),
* memory copies: in-process memcpy vs. cross-process
  ``process_vm_readv``/``writev`` (per-call overhead is what makes
  large direct-IO requests up to ~3.7x slower on vmsh-blk in Fig. 5,
  because a 2 MB request spans 512 descriptor pages),
* guest page-cache hits vs. device round trips (why metadata-heavy
  Phoronix workloads show no vmsh-blk overhead),
* 9p RPC fan-out (several protocol round trips per file op — the
  7.8x IOPS loss of qemu-9p in Fig. 6b).

All constants are integers in nanoseconds (or bytes/us for bandwidth)
so runs are exactly reproducible.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.obs import Observability
from repro.obs.metrics import Counter
from repro.sim.clock import Clock


@dataclass
class CostParams:
    """Tunable latency/bandwidth constants (ns and bytes-per-us)."""

    # Generic host kernel costs
    syscall_ns: int = 500
    host_ctx_switch_ns: int = 2_000
    sched_wakeup_ns: int = 1_500

    # Virtualisation costs
    vmexit_ns: int = 1_200          # VMEXIT + in-kernel KVM handling
    irq_inject_ns: int = 1_000      # interrupt injection + guest ISR entry
    eventfd_signal_ns: int = 600    # irqfd/ioeventfd signalling
    ioregionfd_msg_ns: int = 2_500  # MMIO exit forwarded over the socket
    ptrace_stop_ns: int = 12_000    # stop + register inspection + resume

    # Memory copy paths
    memcpy_bytes_per_us: int = 8_000        # in-process memcpy, 8 GB/s
    procvm_bytes_per_us: int = 6_000        # process_vm_readv/writev, 6 GB/s
    bytewise_bytes_per_us: int = 500      # unoptimised chunked copy path
    procvm_call_ns: int = 2_900             # fixed cost per process_vm_* call
    procvm_seg_ns: int = 2_400              # per extra iovec segment in one call
    memcpy_call_ns: int = 120               # fixed cost per in-process copy

    # Storage
    disk_service_ns: int = 8_000            # NVMe per-request service time
    disk_bytes_per_us: int = 3_200          # NVMe bandwidth, 3.2 GB/s
    host_fs_op_ns: int = 3_000              # host fs metadata op
    guest_fs_op_ns: int = 2_200             # guest fs metadata op (in-kernel)
    guest_block_layer_ns: int = 900         # guest block-layer submit path
    pagecache_hit_ns_per_page: int = 200
    pagecache_insert_ns_per_page: int = 350

    # 9p (two stacked file systems, multiple RPCs per operation)
    p9_rpc_ns: int = 50_000
    p9_rpcs_per_data_op: int = 4            # walk/open/rw/clunk
    p9_rpcs_per_meta_op: int = 3

    # Serverless control plane (§6.5 vHive)
    faas_route_ns: int = 3_000_000          # route a request to a *warm* microVM
    faas_cold_start_ns: int = 125_000_000   # boot + handler init of a cold microVM

    # Snapshot / restore / migrate (firecracker-snapshot-style, REAP-range
    # restore latency): baking walks resident pages once; restoring maps a
    # prebaked image and resumes vCPUs, an order of magnitude under a boot.
    vm_snapshot_capture_ns: int = 35_000_000   # quiesce + walk + serialize
    vm_snapshot_restore_ns: int = 18_000_000   # map image + rearm routes + resume
    vm_migrate_ns: int = 80_000_000            # copy RAM + disk to the peer host
    faas_snapshot_restore_ns: int = 18_000_000  # pool hit: restore, not boot

    # Console / tty / network
    tty_layer_ns: int = 20_000              # line discipline + shell turnaround
    shell_exec_ns: int = 180_000            # shell parses and echoes a command
    net_loopback_rtt_ns: int = 150_000
    ssh_crypto_ns_per_msg: int = 245_000    # encrypt+decrypt+MAC, per message
    vmsh_console_hop_ns: int = 305_000      # vqueue kick -> vmsh -> pts wakeup

    # vmsh-net fabric defaults (per-link; latency is a scheduler delay,
    # serialization is frame bytes over the link rate)
    net_link_latency_ns: int = 50_000       # one-way propagation per hop
    net_link_bytes_per_us: int = 1_250      # 10 GbE-class link
    guest_net_layer_ns: int = 700           # guest net-stack submit path


class CounterView(MutableMapping):
    """``CostModel.counters`` shim: a mapping view over registry counters.

    Pre-PR5 callers treated ``counters`` as a plain ``Dict[str, int]``;
    the storage now lives in the shared :class:`MetricsRegistry` (under
    the ``costs`` subsystem) so exporters and snapshots see the same
    numbers.  The view keeps the dict API — ``get``/``items``/index
    assignment/``clear`` — working against the registry-backed cache.
    """

    __slots__ = ("_model",)

    def __init__(self, model: "CostModel") -> None:
        self._model = model

    def __getitem__(self, name: str) -> int:
        return self._model._cache[name].value

    def __setitem__(self, name: str, value: int) -> None:
        self._model._counter(name).value = value

    def __delitem__(self, name: str) -> None:
        self._model._cache.pop(name)
        self._model.metrics.discard(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._model._cache)

    def __len__(self) -> int:
        return len(self._model._cache)

    def __repr__(self) -> str:
        return repr(dict(self))


class CostModel:
    """Charges virtual time to a :class:`Clock` and keeps counters.

    Counters let tests assert *mechanisms* (e.g. that vmsh-blk incurs
    twice the context switches of qemu-blk) rather than only outcomes.
    They are registry-backed: ``self.metrics`` is the ``costs`` scope of
    the shared observability hub (``self.obs``), and ``self.counters``
    is a dict-compatible view onto it for legacy call sites.
    """

    def __init__(
        self,
        clock: Clock,
        params: CostParams | None = None,
        obs: Observability | None = None,
    ):
        self.clock = clock
        self.p = params if params is not None else CostParams()
        self.obs = obs if obs is not None else Observability(clock)
        self.metrics = self.obs.metrics.scope("costs")
        self._cache: Dict[str, Counter] = {}
        self.counters = CounterView(self)

    # -- accounting helpers -------------------------------------------------

    def _counter(self, name: str) -> Counter:
        c = self._cache.get(name)
        if c is None:
            c = self.metrics.counter(name)
            self._cache[name] = c
        return c

    def _charge(self, counter: str, ns: int) -> None:
        c = self._cache.get(counter)
        if c is None:
            c = self._counter(counter)
        c.value += 1
        self.clock.advance(ns)

    def bump(self, counter: str, n: int = 1) -> None:
        """Increment a counter without advancing the clock."""
        self._counter(counter).value += n

    def count(self, counter: str) -> int:
        c = self._cache.get(counter)
        return 0 if c is None else c.value

    def reset_counters(self) -> None:
        for name in self._cache:
            self.metrics.discard(name)
        self._cache.clear()

    # -- host kernel ---------------------------------------------------------

    def syscall(self) -> None:
        self._charge("syscall", self.p.syscall_ns)

    def context_switch(self) -> None:
        self._charge("ctx_switch", self.p.host_ctx_switch_ns)

    def sched_wakeup(self) -> None:
        self._charge("sched_wakeup", self.p.sched_wakeup_ns)

    def ptrace_stop(self) -> None:
        self._charge("ptrace_stop", self.p.ptrace_stop_ns)

    # -- virtualisation -------------------------------------------------------

    def vmexit(self) -> None:
        self._charge("vmexit", self.p.vmexit_ns)

    def irq_inject(self) -> None:
        self._charge("irq_inject", self.p.irq_inject_ns)

    def eventfd_signal(self) -> None:
        self._charge("eventfd_signal", self.p.eventfd_signal_ns)

    def ioregionfd_message(self) -> None:
        self._charge("ioregionfd_msg", self.p.ioregionfd_msg_ns)

    # -- virtio notification bookkeeping --------------------------------------
    #
    # Pure counters (no clock advance): the time of a kick is charged by
    # the MMIO/VMEXIT path it rides on, and a suppressed notification by
    # definition costs nothing.  They exist so tests and ablations can
    # assert the *mechanism* — how many doorbells rang, how many were
    # elided, how deep the completion batches ran.

    def virtio_kick(self) -> None:
        """A doorbell actually rung (one MMIO store to QUEUE_NOTIFY)."""
        self.bump("kicks")

    def virtio_kick_suppressed(self, n: int = 1) -> None:
        """Doorbells elided under EVENT_IDX (deferred or suppressed)."""
        self.bump("kick_suppressed", n)

    def virtio_irq_coalesced(self, n: int = 1) -> None:
        """Per-completion interrupts folded into one batch interrupt."""
        self.bump("irq_coalesced", n)

    def virtio_irq_suppressed(self) -> None:
        """A used-ring publish whose interrupt EVENT_IDX elided outright."""
        self.bump("irq_suppressed")

    def virtio_batch(self, queue: str, depth: int) -> None:
        """Histogram of completion-batch depths, per device queue kind."""
        self.bump(f"virtio_{queue}_batch_{depth}")

    def batch_histogram(self, queue: str) -> Dict[int, int]:
        prefix = f"virtio_{queue}_batch_"
        return {
            int(name[len(prefix):]): value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    # -- memory copies --------------------------------------------------------

    def memcpy(self, nbytes: int) -> None:
        p = self.p
        self._charge(
            "memcpy",
            p.memcpy_call_ns + (nbytes * 1_000) // max(1, p.memcpy_bytes_per_us),
        )

    def procvm_copy(self, nbytes: int) -> None:
        self.procvm_vectored(nbytes, 1)

    def procvm_vectored(self, nbytes: int, nsegs: int) -> None:
        """One process_vm_readv/writev call carrying ``nsegs`` iovec segments.

        Batching only saves the syscall entry and task lookup: the
        kernel still pins and copies each segment, so every segment
        after the first adds ``procvm_seg_ns`` on top of the per-call
        and per-byte terms.  A single-segment call costs exactly what
        :meth:`procvm_copy` always charged.
        """
        p = self.p
        ns = p.procvm_call_ns + (nbytes * 1_000) // max(1, p.procvm_bytes_per_us)
        if nsegs > 1:
            ns += (nsegs - 1) * p.procvm_seg_ns
        self._charge("procvm_copy", ns)
        if nsegs > 1:
            self.bump("procvm_sg_segments", nsegs)

    def bytewise_copy(self, nbytes: int) -> None:
        """Unoptimised copy path, kept for the §5 ablation."""
        p = self.p
        self._charge(
            "bytewise_copy",
            p.procvm_call_ns + (nbytes * 1_000) // max(1, p.bytewise_bytes_per_us),
        )

    # -- storage ---------------------------------------------------------------

    def disk_io(self, nbytes: int) -> None:
        ns = self.p.disk_service_ns + (nbytes * 1_000) // self.p.disk_bytes_per_us
        self._charge("disk_io", ns)

    def host_fs_op(self) -> None:
        self._charge("host_fs_op", self.p.host_fs_op_ns)

    def guest_fs_op(self) -> None:
        self._charge("guest_fs_op", self.p.guest_fs_op_ns)

    def guest_block_submit(self) -> None:
        self._charge("guest_block_submit", self.p.guest_block_layer_ns)

    def pagecache_hit(self, npages: int) -> None:
        self._charge("pagecache_hit", self.p.pagecache_hit_ns_per_page * max(1, npages))

    def pagecache_insert(self, npages: int) -> None:
        self._charge(
            "pagecache_insert", self.p.pagecache_insert_ns_per_page * max(1, npages)
        )

    # -- 9p ----------------------------------------------------------------------

    def p9_data_op(self) -> None:
        self._charge("p9_rpc", self.p.p9_rpc_ns * self.p.p9_rpcs_per_data_op)

    def p9_meta_op(self) -> None:
        self._charge("p9_rpc", self.p.p9_rpc_ns * self.p.p9_rpcs_per_meta_op)

    # -- serverless control plane ---------------------------------------------------

    def faas_route(self) -> None:
        """Routing a request to an already-warm instance."""
        self._charge("faas_route", self.p.faas_route_ns)

    def faas_cold_start(self) -> None:
        """The cold-start penalty scale-down trades for density (§6.5)."""
        self._charge("faas_cold_start", self.p.faas_cold_start_ns)

    def faas_snapshot_restore(self) -> None:
        """Serve a cold invocation from the prebaked snapshot pool."""
        self._charge("faas_snapshot_restore", self.p.faas_snapshot_restore_ns)

    # -- snapshot / restore / migrate -----------------------------------------------

    def vm_snapshot_capture(self) -> None:
        self._charge("vm_snapshot_capture", self.p.vm_snapshot_capture_ns)

    def vm_snapshot_restore(self) -> None:
        self._charge("vm_snapshot_restore", self.p.vm_snapshot_restore_ns)

    def vm_migrate(self) -> None:
        self._charge("vm_migrate", self.p.vm_migrate_ns)

    # -- console / network ---------------------------------------------------------

    def tty_turnaround(self) -> None:
        self._charge("tty", self.p.tty_layer_ns)

    def shell_exec(self) -> None:
        self._charge("shell_exec", self.p.shell_exec_ns)

    def net_loopback_rtt(self) -> None:
        self._charge("net_rtt", self.p.net_loopback_rtt_ns)

    def guest_net_submit(self) -> None:
        """Guest net-stack path from sendmsg to the TX virtqueue."""
        self._charge("guest_net_submit", self.p.guest_net_layer_ns)

    def ssh_message(self) -> None:
        self._charge("ssh_msg", self.p.ssh_crypto_ns_per_msg)

    def vmsh_console_hop(self) -> None:
        self._charge("vmsh_console_hop", self.p.vmsh_console_hop_ns)
