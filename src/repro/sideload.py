"""The SELF side-loadable library format.

The real VMSH builds its guest kernel library as a shared ELF object
with a trampoline entry point and fixes up kernel-function references
with a custom binary loader (§5).  This module defines our equivalent
on-disk (well, in-guest-memory) format — "SELF", a SidE-Loadable
Format — shared by the builder (VMSH side) and the interpreter (guest
side).  It is a plain byte format: the guest runtime only ever sees the
bytes VMSH actually wrote into guest memory, so any mistake in VMSH's
symbol resolution, relocation patching or page-table mapping surfaces
as a parse failure or a jump into garbage.

Layout (little-endian)::

    0x00  16s  magic "SELF-VMSHLIB\\x00\\x00\\x00\\x00"
    0x10  u32  format version (1)
    0x14  u32  total size
    0x18  u32  program-id offset     (NUL-terminated ASCII)
    0x1c  u32  reloc table offset
    0x20  u32  reloc count
    0x24  u32  config offset
    0x28  u32  config length
    0x2c  u32  payload offset        (embedded stage-2 binary)
    0x30  u32  payload length
    0x34  u32  scratch offset        (trampoline register save area)
    0x38  u32  entry offset          (== 0: entry at blob base)

Relocation entry (40 bytes)::

    32s  symbol name (NUL padded)
    u64  resolved value — zero as built, patched by the loader

Config is a TLV sequence: ``u16 key length, key, u32 value length,
value`` — flexible enough to carry device windows, per-version struct
payloads and the spawn command.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.arch import ARCHES, Arch
from repro.errors import SideloadError

SELF_MAGIC = b"SELF-VMSHLIB\x00\x00\x00\x00"
FORMAT_VERSION = 1
HEADER_SIZE = 0x40
RELOC_ENTRY_SIZE = 40
#: Default trampoline scratch area: sized for the *largest* register
#: file of any supported arch, so a blob built without an explicit
#: arch still fits everywhere.  Arch-aware callers pass ``arch=`` to
#: :func:`build_blob` and get exactly ``arch.scratch_size`` bytes —
#: derived from the register tuple, never hand-counted, so a new port
#: cannot silently overflow its save area.
SCRATCH_SIZE = max(arch.scratch_size for arch in ARCHES.values())


@dataclass(frozen=True)
class RelocEntry:
    name: str
    offset: int       # byte offset of the u64 value slot within the blob
    value: int


@dataclass
class SelfBlob:
    """Parsed view of a SELF blob."""

    program_id: str
    relocs: List[RelocEntry]
    config: Dict[str, bytes]
    payload: bytes
    scratch_offset: int
    entry_offset: int
    total_size: int

    @property
    def scratch_size(self) -> int:
        """Bytes of trampoline save area this blob actually carries."""
        return self.total_size - self.scratch_offset


def pack_config(config: Dict[str, bytes]) -> bytes:
    out = bytearray()
    for key in sorted(config):
        encoded_key = key.encode("ascii")
        value = config[key]
        out += struct.pack("<H", len(encoded_key)) + encoded_key
        out += struct.pack("<I", len(value)) + value
    return bytes(out)


def unpack_config(data: bytes) -> Dict[str, bytes]:
    config: Dict[str, bytes] = {}
    pos = 0
    while pos < len(data):
        try:
            (key_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            key = data[pos : pos + key_len].decode("ascii")
            pos += key_len
            (value_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            value = bytes(data[pos : pos + value_len])
            pos += value_len
        except (struct.error, UnicodeDecodeError) as exc:
            raise SideloadError(f"corrupt SELF config at byte {pos}: {exc}") from exc
        config[key] = value
    return config


def build_blob(
    program_id: str,
    reloc_names: List[str],
    config: Dict[str, bytes],
    payload: bytes,
    arch: Arch = None,
) -> bytes:
    """Assemble a SELF blob with zeroed relocation slots.

    With ``arch``, the trampoline scratch area is sized to that arch's
    register file (``arch.scratch_size``); without, it falls back to
    the max-over-arches :data:`SCRATCH_SIZE`.
    """
    scratch_size = arch.scratch_size if arch is not None else SCRATCH_SIZE
    encoded_id = program_id.encode("ascii") + b"\x00"
    program_id_off = HEADER_SIZE
    reloc_off = program_id_off + len(encoded_id)
    reloc_off = (reloc_off + 7) & ~7
    config_bytes = pack_config(config)
    config_off = reloc_off + len(reloc_names) * RELOC_ENTRY_SIZE
    payload_off = config_off + len(config_bytes)
    payload_off = (payload_off + 7) & ~7
    scratch_off = payload_off + len(payload)
    scratch_off = (scratch_off + 7) & ~7
    total = scratch_off + scratch_size

    blob = bytearray(total)
    struct.pack_into(
        "<16sIIIIIIIIIII",
        blob,
        0,
        SELF_MAGIC,
        FORMAT_VERSION,
        total,
        program_id_off,
        reloc_off,
        len(reloc_names),
        config_off,
        len(config_bytes),
        payload_off,
        len(payload),
        scratch_off,
        0,  # entry offset: blob base
    )
    blob[program_id_off : program_id_off + len(encoded_id)] = encoded_id
    for index, name in enumerate(reloc_names):
        encoded = name.encode("ascii")
        if len(encoded) > 31:
            raise SideloadError(f"symbol name too long: {name}")
        base = reloc_off + index * RELOC_ENTRY_SIZE
        blob[base : base + len(encoded)] = encoded
        # value slot (offset base+32) stays zero until the loader patches it
    blob[config_off : config_off + len(config_bytes)] = config_bytes
    blob[payload_off : payload_off + len(payload)] = payload
    return bytes(blob)


def reloc_slot_offset(blob: bytes, index: int) -> int:
    """Byte offset of relocation ``index``'s value slot."""
    header = struct.unpack_from("<16sIIIIIIIIIII", blob, 0)
    reloc_off, reloc_count = header[4], header[5]
    if not 0 <= index < reloc_count:
        raise SideloadError(f"relocation index {index} out of range")
    return reloc_off + index * RELOC_ENTRY_SIZE + 32


def parse_blob(read: Callable[[int, int], bytes]) -> SelfBlob:
    """Parse a SELF blob through a ``read(offset, length)`` accessor.

    This is what the guest runtime does when the instruction pointer
    lands on VMSH's library: it reads the header *from guest memory*
    and refuses anything that does not check out.
    """
    header_bytes = read(0, HEADER_SIZE)
    (
        magic,
        version,
        total,
        program_id_off,
        reloc_off,
        reloc_count,
        config_off,
        config_len,
        payload_off,
        payload_len,
        scratch_off,
        entry_off,
    ) = struct.unpack_from("<16sIIIIIIIIIII", header_bytes, 0)
    if magic != SELF_MAGIC:
        raise SideloadError(f"bad SELF magic {magic!r}")
    if version != FORMAT_VERSION:
        raise SideloadError(f"unsupported SELF format version {version}")
    for name, offset, span in (
        ("program id", program_id_off, 1),
        ("reloc table", reloc_off, reloc_count * RELOC_ENTRY_SIZE),
        ("config", config_off, config_len),
        # The scratch area runs to the end of the blob; its size is
        # arch-dependent, so only require that it is non-degenerate.
        ("payload", payload_off, payload_len),
        ("scratch", scratch_off, 8),
    ):
        if offset < HEADER_SIZE or offset + span > total:
            raise SideloadError(f"SELF {name} section out of bounds")

    id_bytes = read(program_id_off, min(256, total - program_id_off))
    nul = id_bytes.find(b"\x00")
    if nul < 0:
        raise SideloadError("unterminated SELF program id")
    program_id = id_bytes[:nul].decode("ascii")

    relocs: List[RelocEntry] = []
    table = read(reloc_off, reloc_count * RELOC_ENTRY_SIZE)
    for index in range(reloc_count):
        base = index * RELOC_ENTRY_SIZE
        raw_name = table[base : base + 32].split(b"\x00", 1)[0]
        (value,) = struct.unpack_from("<Q", table, base + 32)
        relocs.append(
            RelocEntry(name=raw_name.decode("ascii"), offset=reloc_off + base + 32, value=value)
        )

    config = unpack_config(read(config_off, config_len))
    payload = read(payload_off, payload_len)
    return SelfBlob(
        program_id=program_id,
        relocs=relocs,
        config=config,
        payload=payload,
        scratch_offset=scratch_off,
        entry_offset=entry_off,
        total_size=total,
    )
