"""One-stop testbed wiring: host kernel, KVM, hypervisors, VMSH.

Mirrors the paper's experiment setup (§6): a Linux host (optionally
with the ioregionfd patch [109]), a dedicated NVMe drive for IO
benchmarks, and pinned-vCPU hypervisors.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.guestos.version import KernelVersion
from repro.host.files import HostFile
from repro.host.kernel import HostKernel
from repro.hypervisors.base import Hypervisor
from repro.hypervisors.flavors import (
    CloudHypervisor,
    Crosvm,
    Firecracker,
    Kvmtool,
    Qemu,
)
from repro.kvm.api import KvmSystem
from repro.obs import Observability
from repro.sim import rng as simrng
from repro.sim.clock import Clock
from repro.sim.costs import CostModel, CostParams
from repro.sim.sched import Scheduler
from repro.sim.trace import Tracer
from repro.units import GiB, MiB


class Testbed:
    """A host machine ready to run VMs and attach VMSH."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        ioregionfd: bool = True,
        cost_params: Optional[CostParams] = None,
        trace: bool = False,
        arch: str = "x86_64",
        seed: Optional[int] = None,
        obs_level: str = "full",
        obs_sample_every: Optional[int] = None,
    ):
        from repro.arch import arch_by_name

        self.clock = Clock()
        #: root observability hub: every layer's spans and metrics land
        #: here (threaded through ``CostModel.obs``), so one snapshot
        #: or Perfetto export covers the whole testbed.  ``obs_level``
        #: selects the span-volume level ("full"/"fleet"/"counters")
        #: for fleet-scale runs — metrics are identical at every level.
        self.obs = Observability(
            self.clock, level=obs_level, sample_every=obs_sample_every
        )
        self.costs = CostModel(self.clock, cost_params, obs=self.obs)
        self.tracer = Tracer(self.clock) if trace else None
        self.host = HostKernel(self.clock, self.costs, self.tracer)
        self._seed = seed if seed is not None else simrng.MASTER_SEED
        self.obs.metrics.scope("testbed").gauge("seed").set(self._seed)
        #: discrete-event scheduler sharing the testbed clock.  Inert
        #: until one of its run loops is entered, so every synchronous
        #: entry point behaves exactly as before; ``seed`` drives the
        #: same-time tie-breaking (defaults to the master seed).
        self.scheduler = Scheduler(
            self.clock,
            label="testbed",
            master_seed=self._seed,
            obs=self.obs,
        )
        self.host.scheduler = self.scheduler
        self.arch = arch_by_name(arch)
        self.host.arch = self.arch
        # The ioregionfd series only ever landed for some arches (it
        # was never merged for riscv): the host kernel cannot offer
        # the capability on an arch where the patch does not exist,
        # regardless of what the caller asked for.
        self._ioregionfd = ioregionfd and self.arch.ioregionfd_available
        self.kvm = KvmSystem(
            self.host, ioregionfd_supported=self._ioregionfd, arch=self.arch
        )
        self._disk_counter = 0
        #: simulated hosts sharing this testbed's clock/scheduler/obs —
        #: migration targets.  Maps each HostKernel to its KvmSystem.
        self.hosts: Dict[HostKernel, KvmSystem] = {self.host: self.kvm}
        #: lazily-created shared network fabric (see :meth:`fabric`)
        self._fabric = None

    # -- networking --------------------------------------------------------------

    def fabric(self, **kwargs):
        """The testbed's shared :class:`~repro.sim.netfab.NetFabric`.

        Created on first use (keyword overrides apply then); every VM
        NIC and host-side port attaches to the same star switch.
        """
        if self._fabric is None:
            from repro.sim.netfab import NetFabric

            self._fabric = NetFabric(
                self.scheduler, self.costs, master_seed=self._seed, **kwargs
            )
        return self._fabric

    # -- storage -----------------------------------------------------------------

    def nvme_partition(self, size: int = 2 * GiB, direct: bool = True) -> HostFile:
        """A fresh partition on the dedicated NVMe drive (TRIMmed)."""
        self._disk_counter += 1
        return HostFile(
            f"/dev/nvme0n1p{self._disk_counter}",
            size=size,
            costs=self.costs,
            direct=direct,
        )

    # -- hypervisors -------------------------------------------------------------

    def launch(
        self,
        cls: Type[Hypervisor],
        guest_version: KernelVersion = KernelVersion(5, 10),
        vcpus: int = 1,
        ram_bytes: int = 512 * MiB,
        disk: Optional[HostFile] = None,
        root_files: Optional[Dict[str, Optional[bytes]]] = None,
        host: Optional[HostKernel] = None,
        nic: bool = False,
        nic_queue_pairs: int = 1,
        **kwargs,
    ) -> Hypervisor:
        """Boot a VM; ``host`` places it on an :meth:`add_host` machine
        (default: the primary host)."""
        if host is None:
            host, kvm = self.host, self.kvm
        else:
            kvm = self.hosts.get(host)
            if kvm is None:
                raise KeyError(
                    "host is not part of this testbed — use add_host()"
                )
        hv = cls(
            host,
            kvm,
            guest_version=guest_version,
            vcpus=vcpus,
            ram_bytes=ram_bytes,
            root_files=root_files,
            **kwargs,
        )
        if disk is not None:
            hv.add_disk(disk)
        if nic:
            port = self.fabric().attach(f"{cls.NAME}-nic")
            hv.add_nic(port, queue_pairs=nic_queue_pairs)
        hv.launch()
        return hv

    def launch_qemu(self, **kwargs) -> Qemu:
        return self.launch(Qemu, **kwargs)  # type: ignore[return-value]

    def launch_firecracker(self, **kwargs) -> Firecracker:
        return self.launch(Firecracker, **kwargs)  # type: ignore[return-value]

    def launch_crosvm(self, **kwargs) -> Crosvm:
        return self.launch(Crosvm, **kwargs)  # type: ignore[return-value]

    def launch_kvmtool(self, **kwargs) -> Kvmtool:
        return self.launch(Kvmtool, **kwargs)  # type: ignore[return-value]

    def launch_cloud_hypervisor(self, **kwargs) -> CloudHypervisor:
        return self.launch(CloudHypervisor, **kwargs)  # type: ignore[return-value]

    # -- snapshot / restore / clone / migrate ------------------------------------

    def add_host(self) -> HostKernel:
        """A second simulated host machine: a migration target.

        Shares this testbed's clock, cost model, observability hub,
        tracer and scheduler (one simulation, several machines), but
        has its own process table, pid/tid namespaces and /dev/kvm.
        """
        host = HostKernel(self.clock, self.costs, self.tracer)
        host.scheduler = self.scheduler
        host.arch = self.arch
        kvm = KvmSystem(
            host, ioregionfd_supported=self._ioregionfd, arch=self.arch
        )
        self.hosts[host] = kvm
        self.obs.metrics.scope("testbed").counter("hosts_added").inc()
        return host

    def snapshot(self, hv, session=None, base=None, freeze="auto"):
        """Capture a :class:`~repro.core.snapshot.VmSnapshot` of ``hv``.

        Charges ``vm_snapshot_capture_ns`` of virtual time (quiesce +
        page walk + serialize).  ``freeze="auto"`` also serializes the
        object graph into an image for later :meth:`clone` whenever no
        live VMSH session holds the VM (a ptrace link or a connected
        ioregionfd socket); pass ``False`` for a cheap restore-only
        capture or ``True`` to require clonability.
        """
        from repro.core.snapshot import VmSnapshot, freeze_refusal

        if freeze == "auto":
            freeze = freeze_refusal(hv) is None
        with self.obs.span("snapshot.capture", track="snapshot",
                           vm=hv.pid, flavor=hv.NAME):
            self.costs.vm_snapshot_capture()
            snap = VmSnapshot.capture(
                hv, session=session, base=base, freeze=freeze,
                scheduler=self.scheduler,
            )
        return snap

    def restore(self, snap, hv, session=None) -> None:
        """Restore ``snap`` into the live ``hv``, in place.

        Charges ``vm_snapshot_restore_ns``.  For the metrics-invisible
        round trip the determinism tests rely on, call
        ``VmSnapshot.restore_into`` directly — the core path is silent.
        """
        with self.obs.span("snapshot.restore", track="snapshot",
                           vm=hv.pid, flavor=hv.NAME):
            self.costs.vm_snapshot_restore()
            snap.restore_into(hv, session=session, scheduler=self.scheduler)

    def clone(self, snap, host: Optional[HostKernel] = None, charge: bool = True):
        """Materialize a new VM from a frozen snapshot.

        Returns a fresh hypervisor (new pid, own RAM and disk) on
        ``host`` (default: this testbed's primary host).  ``charge``
        bills ``vm_snapshot_restore_ns``; the serverless pool passes
        ``charge=False`` and accounts the restore at the FaaS layer.
        """
        host = host if host is not None else self.host
        kvm = self.hosts.get(host)
        if kvm is None:
            raise KeyError("host is not part of this testbed — use add_host()")
        with self.obs.span("snapshot.clone", track="snapshot",
                           source=snap.source_pid, flavor=snap.flavor):
            if charge:
                self.costs.vm_snapshot_restore()
            hv = snap.clone_into(host, kvm)
        return hv

    def migrate(self, hv, dst_host: Optional[HostKernel] = None,
                session=None, **reattach_kwargs):
        """Move a running VM to another simulated host.

        Charges ``vm_migrate_ns``.  A live VMSH session triggers the
        capability fallback: detach on the source, re-attach on the
        destination (a fresh vmsh process on ``dst_host``, keeping the
        session's overlay image and any ``reattach_kwargs``).  Returns
        a :class:`~repro.core.snapshot.MigrationResult`.
        """
        from repro.core.snapshot import migrate_vm
        from repro.core.vmsh import Vmsh

        if dst_host is None:
            dst_host = self.add_host()
        dst_kvm = self.hosts.get(dst_host)
        if dst_kvm is None:
            raise KeyError("host is not part of this testbed — use add_host()")

        reattach = None
        if session is not None and not session.detached:
            image = session.vmsh.image

            def reattach(new_pid: int):
                return Vmsh(dst_host, image=image).attach(
                    new_pid, **reattach_kwargs
                )

        with self.obs.span("vm.migrate", track="snapshot",
                           vm=hv.pid, flavor=hv.NAME):
            self.costs.vm_migrate()
            result = migrate_vm(
                hv, dst_host, dst_kvm, session=session, reattach=reattach
            )
        return result

    # -- VMSH -----------------------------------------------------------------------

    def vmsh(self, image: Optional[bytes] = None):
        from repro.core.vmsh import Vmsh

        return Vmsh(self.host, image=image)
