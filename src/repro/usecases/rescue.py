"""Use-case #2: agent-less VM rescue system (§6.5).

"When users lock themselves out of their VMs, they need rescue
assistance from their hosting provider. ... With VMSH, we build a
simple, agent-less recovery image containing the chpasswd command,
that can be attached while the VM is still running."

No guest agent, no reboot, no recovery VM: the provider attaches VMSH
with the rescue image and resets the password through the overlay's
view of the guest's ``/etc/shadow`` under ``/var/lib/vmsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.vmsh import Vmsh
from repro.errors import VmshError
from repro.hypervisors.base import Hypervisor
from repro.image.builder import build_rescue_image


@dataclass
class RescueReport:
    """Outcome of a rescue operation."""

    user: str
    shell_output: str
    shadow_entry: str
    vm_stayed_running: bool


class RescueService:
    """Provider-side password recovery, built on VMSH."""

    def __init__(self, vmsh: Vmsh):
        self.vmsh = vmsh

    def reset_password(
        self, hypervisor: Hypervisor, user: str, new_password: str
    ) -> RescueReport:
        """Reset ``user``'s password in the running VM."""
        if hypervisor.guest is None:
            raise VmshError("hypervisor has no running guest")
        guest = hypervisor.guest
        processes_before = len(guest.processes.alive())

        session = self.vmsh.attach(hypervisor.pid, image=build_rescue_image())
        try:
            result = session.console.run_command(f"chpasswd {user}:{new_password}")
            shadow = session.console.run_command("cat /var/lib/vmsh/etc/shadow")
        finally:
            session.detach()

        entry = next(
            (line for line in shadow.output.splitlines() if line.startswith(f"{user}:")),
            "",
        )
        # The VM was never restarted: original processes are all alive.
        survivors = [
            p for p in guest.processes.alive() if p.kind in ("init", "user")
        ]
        return RescueReport(
            user=user,
            shell_output=result.output,
            shadow_entry=entry,
            vm_stayed_running=len(survivors) >= 1
            and guest.booted
            and guest.panicked is None
            and len(guest.processes.alive()) >= processes_before,
        )


def verify_password_reset(report: RescueReport, user: str) -> bool:
    """Did the reset actually land in the guest's shadow file?"""
    return (
        report.shadow_entry.startswith(f"{user}:$5$")
        and "oldhash" not in report.shadow_entry
        and "updated" in report.shell_output
        and report.vm_stayed_running
    )
