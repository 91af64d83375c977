"""The VirtIO-PCI/MSI-X transport extension (§6.2 future work).

The paper leaves Cloud Hypervisor unsupported because its irqchip has
no GSI pins.  The extension routes interrupts as MSI messages
(``KVM_IRQFD_MSI``) and serves PCI config space from claimed ECAM
slots, so the same non-cooperative attach works there too.
"""

import pytest

from repro.errors import HypervisorNotSupportedError
from repro.testbed import Testbed
from repro.virtio.pci import (
    CFG_BAR0,
    CFG_COMMAND,
    CFG_VENDOR_ID,
    EMPTY_SLOT,
    GuestPciProbe,
    PciVirtioFunction,
    VIRTIO_PCI_DEVICE_BASE,
    VIRTIO_PCI_VENDOR,
    address_slot,
    slot_address,
)


def test_slot_address_roundtrip():
    for slot in (0, 1, 0xF0, 255):
        assert address_slot(slot_address(slot)) == slot
    from repro.errors import VirtioError

    with pytest.raises(VirtioError):
        slot_address(256)
    with pytest.raises(VirtioError):
        address_slot(0x1000)


def test_pci_attach_on_qemu():
    """The PCI transport also works on ordinary hypervisors."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, transport="pci")
    assert session.report.transport == "pci"
    assert session.console.run_command("echo over-pci").output == "over-pci"
    assert any("pci slot" in line and "MSI-X" in line for line in hv.guest.klog)


def test_cloud_hypervisor_attach_via_pci():
    """The headline of the extension: Cloud Hypervisor becomes attachable."""
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    session = tb.vmsh().attach(hv.pid, transport="pci")
    assert session.report.transport == "pci"
    assert session.console.run_command("echo chv").output == "chv"
    assert hv.guest.panicked is None


def test_cloud_hypervisor_auto_falls_back_to_pci():
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    session = tb.vmsh().attach(hv.pid, transport="auto")
    assert session.report.transport == "pci"


def test_cloud_hypervisor_still_unsupported_on_mmio():
    """Paper fidelity: the default (mmio) transport fails as in Table 1."""
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    with pytest.raises(HypervisorNotSupportedError):
        tb.vmsh().attach(hv.pid)  # default transport="mmio"


def test_auto_prefers_mmio_when_available():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, transport="auto")
    assert session.report.transport == "mmio"


def test_pci_with_wrap_syscall_dispatch():
    """Config-space exits can also be stolen by the ptrace wrapper."""
    tb = Testbed(ioregionfd=False)
    hv = tb.launch_cloud_hypervisor()
    session = tb.vmsh().attach(hv.pid, transport="pci")
    assert session.mmio_mode == "wrap_syscall"
    assert session.console.run_command("echo wrapped-pci").output == "wrapped-pci"


def test_config_space_identification():
    """Guest-side probe decodes vendor/device/BAR correctly."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, transport="pci")
    probe = GuestPciProbe(hv.guest)
    from repro.core.libbuild import VMSH_DEVICES

    console, blk = VMSH_DEVICES[:2]
    console_fn = probe.probe_slot(console.slot)
    blk_fn = probe.probe_slot(blk.slot)
    assert console_fn is not None and blk_fn is not None
    assert console_fn["virtio_id"] == 3      # console
    assert blk_fn["virtio_id"] == 2          # block
    assert console_fn["bar0"] != blk_fn["bar0"]


@pytest.mark.parametrize("mmio_mode", ["ioregionfd", "wrap_syscall"])
def test_bar0_decodes_only_while_memory_is_enabled(mmio_mode):
    """The guest's COMMAND memory-enable bit gates BAR0 accesses that
    arrive through KVM, not only calls on the function itself."""
    from repro.core.libbuild import VMSH_DEVICES
    from repro.errors import VirtioError
    from repro.virtio.constants import MMIO_MAGIC, REG_MAGIC

    tb = Testbed(ioregionfd=mmio_mode == "ioregionfd")
    hv = tb.launch_cloud_hypervisor()
    session = tb.vmsh().attach(hv.pid, transport="pci")
    assert session.mmio_mode == mmio_mode
    console = VMSH_DEVICES[0]
    vcpu = hv.guest.boot_vcpu
    command = slot_address(console.slot) + CFG_COMMAND
    hv.vm.mmio_access(vcpu, True, command, 4, 0)        # decoding off
    with pytest.raises(VirtioError, match="BAR access with memory disabled"):
        hv.vm.mmio_access(vcpu, False, console.mmio + REG_MAGIC)
    GuestPciProbe(hv.guest).enable(console.slot)
    assert hv.vm.mmio_access(vcpu, False, console.mmio + REG_MAGIC) == MMIO_MAGIC
    assert session.console.run_command("echo decoded").output == "decoded"


def test_msi_interrupts_bypass_gsi_routing():
    """MSI delivery works on a VM with gsi_routing_supported=False."""
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    assert not hv.vm.gsi_routing_supported
    received = []
    original_sink = hv.vm.guest_irq_sink

    def spy(vector):
        received.append(vector)
        if original_sink:
            original_sink(vector)

    hv.vm.guest_irq_sink = spy
    session = tb.vmsh().attach(hv.pid, transport="pci")
    session.console.run_command("echo irq")
    from repro.kvm.api import VmFd

    assert any(v >= VmFd.MSI_VECTOR_BASE for v in received)


def test_pci_function_config_semantics():
    """Unit-level: the function's config registers behave like PCI."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.clock import Clock
    from repro.sim.costs import CostModel
    from repro.virtio.blk import MappedImageBackend, VirtioBlkDevice
    from repro.virtio.memio import GuestMemoryAccessor

    class NullAccessor(GuestMemoryAccessor):
        def read(self, gpa, length):
            return b"\x00" * length

        def write(self, gpa, data):
            pass

    costs = CostModel(Clock())
    device = VirtioBlkDevice(
        NullAccessor(MetricsRegistry()), lambda: None, costs,
        MappedImageBackend(costs, b"\x00" * 4096),
    )
    fn = PciVirtioFunction(slot=5, device=device, bar0=0xE0000000, msi_message=9)
    id_word = fn.config_read(CFG_VENDOR_ID)
    assert id_word & 0xFFFF == VIRTIO_PCI_VENDOR
    assert id_word >> 16 == VIRTIO_PCI_DEVICE_BASE + 2
    assert fn.config_read(CFG_BAR0) == 0xE0000000
    # Memory decoding can be turned off, blocking BAR access.
    fn.config_write(0x04, 0)
    from repro.errors import VirtioError

    with pytest.raises(VirtioError):
        fn.read_register(0)
    fn.config_write(0x04, 1 << 1)
    fn.read_register(0)  # magic register; must not raise
