"""Deterministic fault injection for the simulated host (chaos substrate).

The attach pipeline's safety claim — a failed or aborted attach leaves
the guest running and uncorrupted (§4, §6.2) — is only testable if
failures can be *provoked on demand, reproducibly*.  This module
provides that: a :class:`FaultPlan` names injection sites threaded
through the simulated host, and a :class:`FaultInjector` (one per
:class:`~repro.host.kernel.HostKernel`) consults the armed plan at
every site.  Schedules can be scripted exactly or derived from the
master seed via :func:`repro.sim.rng.derive_seed`, so the same seed
always produces the same fault schedule and the same trace.

Fault semantics are *fail-before*: a site is checked immediately before
the operation it guards executes, so an injected fault means the
operation never happened — there is no partially-executed ptrace stop
or half-registered irqfd to reason about.  Each fired fault is marked
in the span stream as a ``fault.injected`` instant.

Injection sites (checked wherever the named mechanism runs):

========================  =====================================================
``attach.<step>``         each step boundary of ``Vmsh._attach_once_gen``
                          (see ``repro.core.vmsh.ATTACH_STEPS``)
``ptrace.attach``         PTRACE_ATTACH (``repro.host.ptrace.attach``)
``ptrace.interrupt``      PTRACE_INTERRUPT
``ptrace.resume``         PTRACE_CONT
``ptrace.inject_syscall`` syscall injection into the tracee
``syscall.<name>``        any host syscall, native or injected
``ioctl.<request>``       ioctl dispatch by request name (KVM_IRQFD, ...)
``kvm.<request>``         the KVM side of a VM/system ioctl
``seccomp.injected``      an *injected* syscall only — the Firecracker
                          seccomp-kill quirk (§6.2)
``physmem.read/write``    guest physical memory accessors
``quirk.<name>``          non-raising behaviour flags, e.g.
                          ``quirk.ioregionfd_missing`` makes
                          KVM_CHECK_EXTENSION deny ioregionfd (the
                          Cloud Hypervisor / unpatched-kernel quirk)
========================  =====================================================
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.errors import (
    PermanentFaultError,
    SeccompViolationError,
    TransientFaultError,
    UnknownFaultSiteError,
)
from repro.sim import rng as simrng

TRANSIENT = "transient"
PERMANENT = "permanent"

#: sites a seed-derived schedule may draw from by default — one per
#: mechanism class the attach pipeline exercises.
DEFAULT_CHAOS_SITES = (
    "ptrace.interrupt",
    "ptrace.inject_syscall",
    "syscall.eventfd2",
    "syscall.mmap",
    "ioctl.KVM_IRQFD",
    "ioctl.KVM_SET_USER_MEMORY_REGION",
    "ioctl.KVM_SET_IOREGION",
    "ioctl.KVM_GET_SREGS",
    "physmem.read",
)

# ---------------------------------------------------------------------------
# Known-site registry
# ---------------------------------------------------------------------------
#
# The sites threaded through the simulated host form a closed set per
# family; a FaultPlan naming a site outside it would never fire, so
# arming one is a bug in the plan.  Families whose member set lives in
# code we can enumerate are checked exactly; ioctl/kvm/syscall names
# are open-ended (the host's tables grow), so those are checked for
# *shape* — which still catches the classic typo of putting a step
# name or a lowercase request where an uppercase one belongs.

_PTRACE_SITES = frozenset(
    {"ptrace.attach", "ptrace.interrupt", "ptrace.resume", "ptrace.inject_syscall"}
)
_SECCOMP_SITES = frozenset({"seccomp.injected"})
_PHYSMEM_SITES = frozenset({"physmem.read", "physmem.write"})
_QUIRK_SITES = frozenset({"quirk.ioregionfd_missing"})
#: virtio data-plane sites: the net device consults the host injector
#: on every RX flush / TX drain, so chaos plans can wedge a queue pair
#: without touching the descriptor rings themselves.
_VIRTIO_SITES = frozenset({"virtio.net_rx_ring", "virtio.net_tx_ring"})
_UPPER_REQUEST = re.compile(r"^[A-Z][A-Z0-9_]*$")
_SYSCALL_NAME = re.compile(r"^[a-z_][a-z0-9_]*$")

#: sites registered at runtime (tests, bespoke harnesses) on top of
#: the built-in families above.
_registered_sites: set = set()


def register_fault_site(*sites: str) -> None:
    """Declare extra injection sites as known (test harness hooks)."""
    _registered_sites.update(sites)


def _attach_steps() -> Sequence[str]:
    from repro.core.vmsh import ATTACH_STEPS  # deferred: core imports sim

    return ATTACH_STEPS


def builtin_fault_sites() -> FrozenSet[str]:
    """The built-in site families only — the fuzzer's generation pool.

    Deliberately excludes runtime-registered harness sites: those are
    process-local (whichever test modules happened to import first),
    and drawing from them would make the fuzzer's pinned-seed case
    sequence depend on collection order instead of the master seed.

    Open-ended families (``ioctl.*``, ``kvm.*``, ``syscall.*``) are
    represented by the members :data:`DEFAULT_CHAOS_SITES` names.
    """
    return frozenset(
        {f"attach.{step}" for step in _attach_steps()}
        | _PTRACE_SITES
        | _SECCOMP_SITES
        | _PHYSMEM_SITES
        | _QUIRK_SITES
        | _VIRTIO_SITES
        | set(DEFAULT_CHAOS_SITES)
    )


def known_fault_sites() -> FrozenSet[str]:
    """Every exactly-enumerable site, runtime registrations included."""
    return builtin_fault_sites() | frozenset(_registered_sites)


def validate_fault_site(site: str) -> None:
    """Raise :class:`UnknownFaultSiteError` for a site nothing checks.

    Sites outside the reserved family prefixes are left alone — tests
    arm bespoke sites (``op``, ``cleanup.op``) against hand-rolled
    ``check()`` calls, and that stays legal.
    """
    if site in _registered_sites:
        return
    family, _, member = site.partition(".")
    checks = {
        "attach": lambda: site in {f"attach.{s}" for s in _attach_steps()},
        "ptrace": lambda: site in _PTRACE_SITES,
        "seccomp": lambda: site in _SECCOMP_SITES,
        "physmem": lambda: site in _PHYSMEM_SITES,
        "quirk": lambda: site in _QUIRK_SITES,
        "virtio": lambda: site in _VIRTIO_SITES,
        "ioctl": lambda: bool(_UPPER_REQUEST.match(member)),
        "kvm": lambda: bool(_UPPER_REQUEST.match(member)),
        "syscall": lambda: bool(_SYSCALL_NAME.match(member)),
    }
    check = checks.get(family)
    if check is None or check():
        return
    if family == "attach":
        hint = "known steps: " + ", ".join(_attach_steps())
    elif family in ("ioctl", "kvm"):
        hint = "request names are UPPER_CASE, e.g. ioctl.KVM_IRQFD"
    elif family == "syscall":
        hint = "syscall names are lower_case, e.g. syscall.eventfd2"
    else:
        hint = "known members: " + ", ".join(
            sorted(s for s in known_fault_sites() if s.startswith(family + "."))
        )
    raise UnknownFaultSiteError(site, hint)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire on the Nth hit of ``site``.

    A *transient* fault fires for hits ``occurrence .. occurrence +
    count - 1`` and then heals — an occurrence-indexed match, so a
    retried pipeline that re-traverses the site naturally gets past it.
    A *permanent* fault fires on every hit from ``occurrence`` on.

    ``flavor`` selects the raised error: ``"generic"`` raises
    :class:`TransientFaultError`/:class:`PermanentFaultError`;
    ``"seccomp_kill"`` raises :class:`SeccompViolationError` the way a
    Firecracker filter would reject the injected syscall.
    """

    site: str
    occurrence: int = 1
    kind: str = TRANSIENT
    count: int = 1
    flavor: str = "generic"
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (TRANSIENT, PERMANENT):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.occurrence < 1 or self.count < 1:
            raise ValueError("occurrence and count are 1-based and positive")

    def matches(self, hit: int) -> bool:
        if self.kind == PERMANENT:
            return hit >= self.occurrence
        return self.occurrence <= hit < self.occurrence + self.count


class FaultPlan:
    """An ordered set of :class:`FaultSpec` with a provenance label."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        label: str = "scripted",
        master_seed: int = simrng.MASTER_SEED,
    ):
        self.specs: List[FaultSpec] = list(specs)
        self.label = label
        self.master_seed = master_seed

    @classmethod
    def derive(
        cls,
        label: str,
        master_seed: int = simrng.MASTER_SEED,
        faults: int = 3,
    ) -> "FaultPlan":
        """Seed-derived schedule: same ``(label, master_seed)`` — same plan.

        Each fault picks a :data:`DEFAULT_CHAOS_SITES` site, fires at one
        of its first four occurrences and is transient or permanent with
        even odds.

        Draws from a dedicated RNG stream (``faults:<label>``) so other
        seeded subsystems are not perturbed.
        """
        stream = simrng.stream(f"faults:{label}", master_seed)
        specs = []
        for _ in range(faults):
            specs.append(
                FaultSpec(
                    site=stream.choice(list(DEFAULT_CHAOS_SITES)),
                    occurrence=stream.randint(1, 4),
                    kind=TRANSIENT if stream.random() < 0.5 else PERMANENT,
                )
            )
        return cls(specs, label=label, master_seed=master_seed)

    def mentions(self, prefix: str) -> bool:
        return any(s.site.startswith(prefix) for s in self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.label!r}, {len(self.specs)} specs)"


@dataclass(frozen=True)
class FiredFault:
    """Log record of one injected fault (for chaos-suite assertions)."""

    site: str
    kind: str
    occurrence: int


class FaultInjector:
    """Per-host runtime consulted at every fault site.

    Disarmed (the default) it is inert: :meth:`check` is a cheap
    early-return, so the injector can stay permanently wired into the
    host's hot paths.  :meth:`suspended` masks injection — rollback
    code runs under it so compensating actions can never themselves be
    failed by the plan that triggered them.
    """

    def __init__(self, obs: Any):
        #: observability hub (``repro.obs.Observability``) — fired
        #: faults land as instant spans on the "faults" track and bump
        #: a per-site counter, so injections line up with attach-step
        #: spans in the exported Perfetto trace.
        self.obs = obs
        self._plan: Optional[FaultPlan] = None
        self._hits: Dict[str, int] = {}
        self._suspend_depth = 0
        self.fired: List[FiredFault] = []

    # -- lifecycle ---------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        """Install ``plan``; hit counters and the fired log restart.

        Every spec's site is validated against the known-site registry
        first — a typo'd site fails here, not by silently never firing.
        """
        for spec in plan.specs:
            validate_fault_site(spec.site)
        self._plan = plan
        self._hits = {}
        self.fired = []
        if plan.mentions("physmem."):
            from repro.mem.physmem import PhysicalMemory

            PhysicalMemory.fault_check = self.check
        self.obs.instant(
            "fault.armed", track="fault", plan=plan.label, specs=len(plan.specs)
        )

    def disarm(self) -> None:
        from repro.mem.physmem import PhysicalMemory

        if PhysicalMemory.fault_check == self.check:
            PhysicalMemory.fault_check = None
        self._plan = None
        self._hits = {}

    @property
    def armed(self) -> bool:
        return self._plan is not None

    @property
    def active(self) -> bool:
        """True when :meth:`check` could do anything at all right now.

        Exactly the early-out condition inside ``check``, exposed so
        hot call sites (every syscall, ioctl and KVM request) can skip
        building the ``f"site.{name}"`` string and the call itself
        when no plan is armed — ``check`` neither counts hits nor
        registers sites in that state, so gating on this is
        behavior-identical.
        """
        return self._plan is not None and not self._suspend_depth

    @contextmanager
    def plan(self, plan: FaultPlan) -> Iterator["FaultInjector"]:
        """Scoped arm/disarm for tests."""
        self.arm(plan)
        try:
            yield self
        finally:
            self.disarm()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Mask injection (nestable) — used while unwinding a transaction."""
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    # -- the sites ---------------------------------------------------------

    def check(self, site: str, **detail: Any) -> None:
        """Count a hit of ``site``; raise if the armed plan says so."""
        if self._plan is None or self._suspend_depth:
            return
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        for spec in self._plan.specs:
            if spec.site == site and spec.matches(hit):
                self._fire(spec, hit, detail)

    def flag(self, site: str) -> bool:
        """Non-raising quirk flag: is ``site`` armed right now?

        Used for faults that alter behaviour instead of failing it,
        e.g. ``quirk.ioregionfd_missing`` downgrading the host kernel.
        """
        if self._plan is None or self._suspend_depth:
            return False
        if not any(s.site == site for s in self._plan.specs):
            return False
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        self._record(site, "quirk", hit)
        return True

    def hits(self, site: str) -> int:
        return self._hits.get(site, 0)

    # -- internal ----------------------------------------------------------

    def _record(self, site: str, kind: str, occurrence: int) -> None:
        self.fired.append(FiredFault(site=site, kind=kind, occurrence=occurrence))
        self.obs.instant(
            "fault.injected", track="faults",
            site=site, kind=kind, occurrence=occurrence,
        )
        self.obs.metrics.scope("faults").counter("injected", site=site).inc()

    def _fire(self, spec: FaultSpec, hit: int, detail: Dict[str, Any]) -> None:
        self._record(spec.site, spec.kind, hit)
        if spec.flavor == "seccomp_kill":
            raise SeccompViolationError(
                str(detail.get("syscall", "?")), str(detail.get("thread", "?"))
            )
        error = TransientFaultError if spec.kind == TRANSIENT else PermanentFaultError
        raise error(spec.site, spec.kind, hit, spec.message)

