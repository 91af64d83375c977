"""The guest userspace program ("stage 2", §5).

The kernel library keeps itself minimal by offloading everything it
can to this statically linked userspace program, which it copies to
``/dev`` and starts with ``call_usermodehelper``.  Stage 2:

1. mounts the file-system image from the vmsh-blk device,
2. builds the container-based overlay (new mount namespace, image as
   root, old mounts under ``/var/lib/vmsh``),
3. optionally adopts a target container's context (UID/GID,
   namespaces, cgroup, capabilities, security profile — §4.4),
4. spawns the requested command and wires it to the VMSH console.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.overlay import OverlayResult, build_overlay
from repro.errors import GuestError
from repro.guestos.console import GuestTty
from repro.guestos.kernel import GuestKernel, register_program
from repro.guestos.process import Credentials, GuestProcess
from repro.image.fsimage import mount_image


@dataclass
class OverlaySession:
    """Everything stage 2 set up, recorded on the guest kernel."""

    overlay: OverlayResult
    shell_pid: int
    tty: GuestTty
    container_pid: int


class Stage2Program:
    """Runtime for the ``vmsh-stage2`` userspace binary."""

    @staticmethod
    def spawn(kernel: GuestKernel, process: GuestProcess, argv: List[str]) -> None:
        command = _arg(argv, "--command", "/bin/sh")
        container_pid = int(_arg(argv, "--container-pid", "0"))

        if kernel.vmsh_block is None:
            raise GuestError("stage2: vmsh block device is not registered")
        if kernel.vmsh_console is None:
            raise GuestError("stage2: vmsh console device is not registered")

        # 1. Mount the image served by vmsh-blk.
        image_fs = mount_image(
            kernel.vmsh_block,
            cache=kernel.page_cache,
            costs=kernel.costs,
            writable=True,
        )

        # 2./3. Pick the base namespace and credentials.
        creds = Credentials()
        base_ns = kernel.root_ns
        capabilities = None
        security_profile = "unconfined"
        cgroup = "/"
        pid_ns = "init"
        if container_pid:
            target = kernel.processes.get(container_pid)
            context = target.container_context()
            base_ns = context.mount_ns
            creds = Credentials(uid=context.uid, gid=context.gid)
            capabilities = context.capabilities
            security_profile = context.security_profile
            cgroup = context.cgroup
            pid_ns = context.pid_ns

        overlay = build_overlay(image_fs, base_ns)

        # Stage 2 itself now lives inside the overlay.
        process.mount_ns = overlay.namespace
        process.vfs = overlay.vfs

        # 4. Spawn the command from the image and connect the console.
        shell_pid = kernel.exec_user(
            command, argv=[command], namespace=overlay.namespace, creds=creds
        )
        shell_process = kernel.processes.get(shell_pid)
        if capabilities is not None:
            shell_process.capabilities = frozenset(capabilities)
        shell_process.security_profile = security_profile
        shell_process.cgroup = cgroup
        shell_process.pid_ns = pid_ns
        shell = getattr(shell_process, "shell", None)
        if shell is None:
            raise GuestError(f"stage2: {command} did not produce an interactive shell")

        console = kernel.vmsh_console
        tty = GuestTty(kernel.costs, write_out=console.send)
        tty.connect_shell(shell)
        console.on_input(tty.input_bytes)

        kernel.vmsh_overlay = OverlaySession(  # type: ignore[attr-defined]
            overlay=overlay,
            shell_pid=shell_pid,
            tty=tty,
            container_pid=container_pid,
        )

        # Optional vm-exec device (§2.2): one-shot commands in the
        # overlay, out of band of the interactive console.
        exec_driver = kernel.vmsh_exec
        if exec_driver is not None:
            _attach_exec_executor(kernel, exec_driver, overlay, creds)

        kernel.printk(
            f"vmsh: overlay ready, {command} (pid {shell_pid}) on vmsh console"
        )


def _attach_exec_executor(kernel, exec_driver, overlay, creds) -> None:
    """Wire the guest vm-exec driver to one-shot overlay commands."""
    from repro.guestos.console import GuestShell
    from repro.virtio.vmexec import ExecResult

    def executor(argv: List[str]) -> ExecResult:
        process = GuestProcess(
            "vm-exec", overlay.namespace, creds=creds, kind="user"
        )
        kernel.processes.add(process)
        shell = GuestShell(process, kernel=kernel, costs=kernel.costs)
        output = shell.execute(" ".join(argv))
        process.exit(0)
        if output.startswith("sh: ") and output.endswith(": not found"):
            exit_code = 127
        elif ": E" in output.split("\n")[0][:40]:     # "cat: ENOENT: ..."
            exit_code = 1
        else:
            exit_code = 0
        return ExecResult(exit_code=exit_code, output=output)

    exec_driver.set_executor(executor)


def _arg(argv: List[str], flag: str, default: str) -> str:
    for index, value in enumerate(argv):
        if value == flag and index + 1 < len(argv):
            return argv[index + 1]
    return default


register_program("vmsh-stage2", Stage2Program)
