"""The side-loaded device table across the attach matrix.

One row per device (``repro.core.libbuild.VMSH_DEVICES``) drives the
library blob, the irqfds and ioregions VMSH injects into the
hypervisor, and the device host.  Each cell of 5 VMMs x mmio_mode x
transport x exec_device checks that the attach wires exactly the
planned rows into the VM, leaves the hypervisor's fd table as found,
and that every planned device answers.
"""

import pytest

from repro.core.libbuild import VMSH_DEVICES, VMSH_MMIO_STRIDE
from repro.errors import HypervisorNotSupportedError, VmshError
from repro.testbed import Testbed
from repro.virtio.pci import SLOT_STRIDE

FLAVORS = {
    "qemu": ("launch_qemu", {}),
    "kvmtool": ("launch_kvmtool", {}),
    "firecracker": ("launch_firecracker", {"seccomp": False}),
    "crosvm": ("launch_crosvm", {}),
    "cloud_hypervisor": ("launch_cloud_hypervisor", {}),
}

CELLS = [
    (flavor, mmio_mode, transport, exec_device)
    for flavor in FLAVORS
    for mmio_mode in ("auto", "wrap_syscall")
    for transport in ("mmio", "pci")
    for exec_device in (False, True)
]


def _served(vm, gpa, size):
    return any(region.contains(gpa, size) for region in vm.ioregions)


@pytest.mark.parametrize(
    "flavor,mmio_mode,transport,exec_device", CELLS,
    ids=[f"{f}-{m}-{t}-{'exec' if e else 'noexec'}" for f, m, t, e in CELLS],
)
def test_attach_wires_exactly_the_planned_rows(
    flavor, mmio_mode, transport, exec_device
):
    launch, kwargs = FLAVORS[flavor]
    tb = Testbed()
    hv = getattr(tb, launch)(**kwargs)
    vm = hv.vm
    fds = [fd for fd, _ in hv.process.fds.items()]
    gsis, msis = set(vm.irq_routes), set(vm._msi_routes)

    def attach():
        return tb.vmsh().attach(
            hv.pid, mmio_mode=mmio_mode, transport=transport,
            exec_device=exec_device,
        )

    if flavor == "cloud_hypervisor" and transport == "mmio":
        # MSI-X-only irqchip: no GSI pins to route (Table 1).
        with pytest.raises(HypervisorNotSupportedError):
            attach()
        assert [fd for fd, _ in hv.process.fds.items()] == fds
        assert (set(vm.irq_routes), set(vm._msi_routes)) == (gsis, msis)
        return

    session = attach()
    planned = VMSH_DEVICES if exec_device else VMSH_DEVICES[:2]
    unplanned = VMSH_DEVICES[len(planned):]
    # One irqfd route per planned row: its GSI, or its MSI on pci.
    if transport == "pci":
        assert set(vm._msi_routes) - msis == {row.msi for row in planned}
        assert len(vm._msi_routes) == len(msis) + len(planned)
        assert set(vm.irq_routes) == gsis
    else:
        assert set(vm.irq_routes) - gsis == {row.gsi for row in planned}
        assert len(vm.irq_routes) == len(gsis) + len(planned)
        assert set(vm._msi_routes) == msis
    if session.mmio_mode == "ioregionfd":
        for row in planned:
            assert _served(vm, row.mmio, VMSH_MMIO_STRIDE)
            assert _served(vm, row.ecam, SLOT_STRIDE) == (transport == "pci")
        for row in unplanned:
            assert not _served(vm, row.mmio, VMSH_MMIO_STRIDE)
            assert not _served(vm, row.ecam, SLOT_STRIDE)
    else:
        assert vm.ioregions == []
    assert [fd for fd, _ in hv.process.fds.items()] == fds

    assert session.console.run_command("echo ok").output == "ok"
    if exec_device:
        assert session.exec("echo hi").output == "hi"
    else:
        with pytest.raises(VmshError, match="exec_device"):
            session.exec("echo hi")
    session.detach()
