"""Canned VMSH file-system images for the paper's use-cases (§6.5).

Each builder returns image bytes (the format of
:mod:`repro.image.fsimage`) ready to hand to :class:`repro.core.Vmsh`.
Real deployments would pack musl-linked binaries; our binaries are
SIMELF personalities plus deterministic filler so the bytes still
travel the whole virtqueue path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.image.fsimage import ImageSpec, build_image

_SHELL = b"#!SIMELF:shell\n"


def _tool(name: str, size: int = 8192) -> bytes:
    """A deterministic standalone 'binary' body.

    Byte ``i`` of the filler is ``(c * 131 + i) & 0xFF`` over the name
    repeated past ``size`` bytes, computed in one array pass.
    """
    import numpy as np

    header = _SHELL
    codes = np.frombuffer(name.encode() * (size // len(name) + 1), dtype=np.uint8)
    body = (codes.astype(np.int64) * 131 + np.arange(codes.size)) & 0xFF
    return header + body.astype(np.uint8).tobytes()[: size - len(header)]


def _base_spec(extra_tools: Iterable[str] = ()) -> ImageSpec:
    spec = ImageSpec()
    for directory in ("/bin", "/sbin", "/usr/bin", "/etc", "/dev", "/tmp", "/var", "/var/lib"):
        spec.add_dir(directory)
    spec.add_file("/bin/sh", _SHELL, mode=0o755)
    spec.add_file("/etc/os-release", b'NAME="vmsh-overlay"\n')
    for tool in ("ls", "cat", "echo", "ps", "mount", "df", "id", "sha256sum"):
        spec.add_file(f"/bin/{tool}", _tool(tool), mode=0o755)
    for tool in extra_tools:
        spec.add_file(f"/usr/bin/{tool}", _tool(tool), mode=0o755)
    spec.add_symlink("/usr/bin/env", "/bin/sh")
    return spec


def build_admin_image(extra_space: int = 8 * 1024 * 1024) -> bytes:
    """The general administration/debugging image (default for attach)."""
    spec = _base_spec(
        extra_tools=("strace", "tcpdump", "lsof", "gdb", "vim", "htop", "curl")
    )
    return build_image(spec, extra_space=extra_space)


def build_rescue_image() -> bytes:
    """Use-case #2: agent-less recovery image carrying chpasswd (§6.5)."""
    spec = _base_spec(extra_tools=("fsck", "mkfs"))
    spec.add_file("/sbin/chpasswd", _tool("chpasswd"), mode=0o755)
    spec.add_file(
        "/etc/motd",
        b"VMSH rescue system - the guest root is under /var/lib/vmsh\n",
    )
    return build_image(spec)


def build_scanner_image(secdb: Optional[bytes] = None) -> bytes:
    """Use-case #3: package security scanner + vulnerability database."""
    spec = _base_spec(extra_tools=("vuln-scan",))
    spec.add_dir("/var/lib/secdb")
    spec.add_file("/var/lib/secdb/alpine.json", secdb if secdb is not None else b"{}")
    return build_image(spec)


def build_serverless_debug_image() -> bytes:
    """Use-case #1: interactive debugging tools for lambda instances."""
    spec = _base_spec(extra_tools=("strace", "py-spy", "node-inspect", "tail"))
    spec.add_file("/etc/motd", b"vHive lambda debug shell (via VMSH)\n")
    return build_image(spec)


def build_custom_image(files: Dict[str, bytes], extra_space: int = 4 * 1024 * 1024) -> bytes:
    """An image from an explicit path->content map (plus /bin/sh)."""
    spec = _base_spec()
    for path, content in files.items():
        spec.add_file(path, content)
    return build_image(spec, extra_space=extra_space)
