"""Canned VMSH file-system images for the paper's use-cases (§6.5).

Each builder returns a read-only view of the image bytes (the format
of :mod:`repro.image.fsimage`) ready to hand to :class:`repro.core.Vmsh`.
Real deployments would pack musl-linked binaries; our binaries are
SIMELF personalities plus deterministic filler so the bytes still
travel the whole virtqueue path.

The admin, rescue and debug images are built once per distinct content
and shared by every caller: a session's blk backend copies what it
writes and never writes the image it serves.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional

from repro.image.fsimage import ImageSpec, build_image

_SHELL = b"#!SIMELF:shell\n"


@functools.lru_cache(maxsize=64)
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


#: (files, symlinks, modes, extra space) -> the one view built for them
_CANNED: Dict[tuple, memoryview] = {}


def _canned(spec: ImageSpec, extra_space: int = 4 * 1024 * 1024) -> memoryview:
    """``build_image(spec, extra_space)``, built once per distinct spec.

    The key is the spec's content, not the builder's arguments, so a
    builder still packs its tools on every call (cheaply: ``_tool`` is
    cached) and only the image is shared.
    """
    key = (tuple(spec.files.items()), tuple(spec.symlinks.items()),
           tuple(spec.modes.items()), extra_space)
    if key not in _CANNED:
        _CANNED[key] = build_image(spec, extra_space=extra_space)
    return _CANNED[key]


def build_admin_image(extra_space: int = 8 * 1024 * 1024) -> memoryview:
    """The general administration/debugging image (default for attach)."""
    spec = _base_spec(
        extra_tools=("strace", "tcpdump", "lsof", "gdb", "vim", "htop", "curl")
    )
    return _canned(spec, extra_space=extra_space)


def build_rescue_image() -> memoryview:
    """Use-case #2: agent-less recovery image carrying chpasswd (§6.5)."""
    spec = _base_spec(extra_tools=("fsck", "mkfs"))
    spec.add_file("/sbin/chpasswd", _tool("chpasswd"), mode=0o755)
    spec.add_file(
        "/etc/motd",
        b"VMSH rescue system - the guest root is under /var/lib/vmsh\n",
    )
    return _canned(spec)


def build_scanner_image(secdb: Optional[bytes] = None) -> memoryview:
    """Use-case #3: package security scanner + vulnerability database."""
    spec = _base_spec(extra_tools=("vuln-scan",))
    spec.add_dir("/var/lib/secdb")
    spec.add_file("/var/lib/secdb/alpine.json", secdb if secdb is not None else b"{}")
    return build_image(spec)


def build_serverless_debug_image() -> memoryview:
    """Use-case #1: interactive debugging tools for lambda instances."""
    spec = _base_spec(extra_tools=("strace", "py-spy", "node-inspect", "tail"))
    spec.add_file("/etc/motd", b"vHive lambda debug shell (via VMSH)\n")
    return _canned(spec)
