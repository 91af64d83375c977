"""Guest-side semantics of the side-loaded kernel library (§4.2, §5).

When VMSH rewrites a vCPU's RIP and the guest re-enters, execution
lands on the SELF blob in guest memory.  The guest runtime parses the
blob and runs this program — the moral equivalent of the library's
machine code.  Everything it consumes comes *from guest memory*: the
relocated function pointers (patched by VMSH's loader), the config
TLVs, the embedded stage-2 payload and the trampoline's register save
area.  A mistake anywhere upstream (wrong symbol address, wrong struct
layout for this kernel version, unmapped page) faults here, as it
would on real hardware.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.libbuild import VMSH_DEVICES
from repro.errors import GuestPanicError
from repro.guestos.kernel import GuestKernel, register_program
from repro.guestos.kfunctions import PosRef
from repro.guestos.vfs import O_CREAT, O_RDWR, O_TRUNC
from repro.kvm.vcpu import VcpuFd
from repro.sideload import SelfBlob

WRITE_CHUNK = 4096


class KernelLibProgram:
    """Runtime for program id ``vmsh-kernel-lib``."""

    @staticmethod
    def execute(
        kernel: GuestKernel, blob: SelfBlob, blob_vaddr: int, vcpu: VcpuFd
    ) -> str:
        lib = _LibRun(kernel, blob, blob_vaddr, vcpu)
        return lib.run()


class _LibRun:
    def __init__(
        self, kernel: GuestKernel, blob: SelfBlob, blob_vaddr: int, vcpu: VcpuFd
    ):
        self.kernel = kernel
        self.blob = blob
        self.blob_vaddr = blob_vaddr
        self.vcpu = vcpu
        self.funcs: Dict[str, int] = {}
        for reloc in blob.relocs:
            if reloc.value == 0:
                kernel.panic(
                    f"vmsh library: unrelocated symbol {reloc.name!r} "
                    "(loader failed to patch)"
                )
            self.funcs[reloc.name] = reloc.value
        abi = blob.config.get("abi", b"").decode("ascii")
        if abi not in ("pos_second", "pos_pointer"):
            kernel.panic(f"vmsh library: bad ABI tag {abi!r}")
        self.abi = abi

    # -- convenience ------------------------------------------------------------

    def call(self, name: str, *args: Any) -> Any:
        try:
            vaddr = self.funcs[name]
        except KeyError:
            self.kernel.panic(f"vmsh library: no relocation for {name!r}")
        return self.kernel.call_kfunc(vaddr, *args)

    # -- the library main -----------------------------------------------------------

    def run(self) -> str:
        kernel = self.kernel
        self.call("printk", "vmsh: kernel library loaded")

        # 1. Register the platform devices the blob carries, in table
        #    order.  The struct payloads were packed by VMSH for the
        #    version it detected; the guest parses them for the version
        #    it runs.
        for device in VMSH_DEVICES:
            info = self.blob.config.get(device.config_key)
            if info is not None:
                self.call("platform_device_register_full", info)

        # 2. Copy the embedded stage-2 binary into a writable path
        #    (/dev per §5) using only exported file-IO functions.
        stage2_path = self.blob.config["stage2_path"].decode()
        file_no = self.call(
            "filp_open", stage2_path, frozenset({O_CREAT, O_RDWR, O_TRUNC}), 0o755
        )
        payload = self.blob.payload
        pos = 0
        pos_ref = PosRef(0)
        while pos < len(payload):
            chunk = payload[pos : pos + WRITE_CHUNK]
            if self.abi == "pos_second":
                written = self.call("kernel_write", file_no, pos, chunk)
            else:
                written = self.call("kernel_write", file_no, chunk, pos_ref)
            if written != len(chunk):
                kernel.panic("vmsh library: short kernel_write")
            pos += written
        # Read-back verification of the first chunk, exercising the
        # kernel_read variant as well.
        if self.abi == "pos_second":
            head = self.call("kernel_read", file_no, 0, min(64, len(payload)))
        else:
            head = self.call("kernel_read", file_no, min(64, len(payload)), PosRef(0))
        if bytes(head) != payload[: len(head)]:
            kernel.panic("vmsh library: stage2 readback mismatch")
        self.call("filp_close", file_no)

        # 3. Spawn the stage-2 process off a kernel thread so the
        #    library's borrowed vCPU context can return immediately.
        token = f"vmsh-spawn-{self.blob_vaddr:#x}"
        umh_bytes = self.blob.config["umh"]

        def kthread_body() -> None:
            pid = self.call("call_usermodehelper", umh_bytes)
            kernel.vmsh_stage2_pid = pid  # type: ignore[attr-defined]
            self.call("printk", f"vmsh: stage2 spawned as pid {pid}")

        kernel.kthread_entries[token] = kthread_body
        kthread_pid = self.call("kthread_create_on_node", token, "vmsh-worker")
        self.call("wake_up_process", kthread_pid)
        self.call("kernel_wait4", kthread_pid)
        del kernel.kthread_entries[token]       # the thread has been reaped

        # 4. Trampoline epilogue: restore the interrupted context from
        #    the scratch save area and hand the vCPU back.
        self._restore_registers()
        self.call("printk", "vmsh: kernel library done")
        return "vmsh-lib-done"

    def _restore_registers(self) -> None:
        arch = self.kernel.arch
        scratch = self.kernel.read_virt(
            self.blob_vaddr + self.blob.scratch_offset, arch.scratch_size
        )
        restored = arch.unpack_context(scratch)
        if restored[arch.ip_register] == 0:
            raise GuestPanicError(
                "vmsh library: trampoline save area is empty — "
                "sideloader forgot to save registers"
            )
        self.vcpu.regs.update(restored)


register_program("vmsh-kernel-lib", KernelLibProgram)
