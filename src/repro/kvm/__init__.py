"""Simulated KVM: /dev/kvm, VM fds, vCPUs, memslots, MMIO dispatch."""

from repro.kvm.api import GuestPhysMemory, IoEventFd, IoRegionFd, KvmSystem, VmFd
from repro.kvm.exits import KvmRunPage, MmioExit
from repro.kvm.memslots import Memslot, MemslotTable
from repro.kvm.vcpu import VcpuFd

__all__ = [
    "KvmSystem",
    "VmFd",
    "VcpuFd",
    "GuestPhysMemory",
    "Memslot",
    "MemslotTable",
    "MmioExit",
    "KvmRunPage",
    "IoEventFd",
    "IoRegionFd",
]
