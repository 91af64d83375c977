"""SELF blob format: build, parse, relocation slots, corruption."""

import struct

import pytest

from repro.errors import SideloadError
from repro.sideload import (
    HEADER_SIZE,
    RELOC_ENTRY_SIZE,
    SCRATCH_SIZE,
    SELF_MAGIC,
    build_blob,
    pack_config,
    parse_blob,
    reloc_slot_offset,
    unpack_config,
)


def _reader(blob: bytes):
    return lambda off, length: blob[off : off + length]


def test_build_parse_roundtrip():
    blob = build_blob(
        "test-prog",
        ["printk", "filp_open"],
        {"key": b"value", "other": b"\x00\x01"},
        b"PAYLOAD",
    )
    parsed = parse_blob(_reader(blob))
    assert parsed.program_id == "test-prog"
    assert [r.name for r in parsed.relocs] == ["printk", "filp_open"]
    assert all(r.value == 0 for r in parsed.relocs)
    assert parsed.config == {"key": b"value", "other": b"\x00\x01"}
    assert parsed.payload == b"PAYLOAD"
    assert parsed.total_size == len(blob)


def test_reloc_patching():
    blob = bytearray(build_blob("p", ["printk"], {}, b""))
    offset = reloc_slot_offset(bytes(blob), 0)
    struct.pack_into("<Q", blob, offset, 0xFFFFFFFF81234567)
    parsed = parse_blob(_reader(bytes(blob)))
    assert parsed.relocs[0].value == 0xFFFFFFFF81234567


def test_reloc_index_out_of_range():
    blob = build_blob("p", ["printk"], {}, b"")
    with pytest.raises(SideloadError):
        reloc_slot_offset(blob, 1)


def test_bad_magic_rejected():
    blob = bytearray(build_blob("p", [], {}, b""))
    blob[0:4] = b"EVIL"
    with pytest.raises(SideloadError, match="magic"):
        parse_blob(_reader(bytes(blob)))


def test_bad_version_rejected():
    blob = bytearray(build_blob("p", [], {}, b""))
    struct.pack_into("<I", blob, 16, 999)
    with pytest.raises(SideloadError, match="version"):
        parse_blob(_reader(bytes(blob)))


def test_out_of_bounds_section_rejected():
    blob = bytearray(build_blob("p", [], {}, b"payload"))
    # Corrupt the payload offset to point past the end.
    struct.pack_into("<I", blob, 0x2C, len(blob) + 100)
    with pytest.raises(SideloadError, match="out of bounds"):
        parse_blob(_reader(bytes(blob)))


def test_symbol_name_length_limit():
    with pytest.raises(SideloadError, match="too long"):
        build_blob("p", ["x" * 40], {}, b"")


def test_scratch_area_sized_for_registers():
    from repro.arch import ARCHES

    for arch in ARCHES.values():
        assert SCRATCH_SIZE >= len(arch.gp_registers) * 8, arch.name


def test_config_tlv_roundtrip():
    config = {"a": b"", "binary": bytes(range(256)), "z" * 60: b"x"}
    assert unpack_config(pack_config(config)) == config


def test_config_corrupt_rejected():
    with pytest.raises(SideloadError):
        unpack_config(b"\x05\x00abc")  # truncated key


def test_blob_sections_are_aligned():
    blob = build_blob("prog", ["a", "b", "c"], {"k": b"v"}, b"x" * 33)
    header = struct.unpack_from("<16sIIIIIIIIIII", blob, 0)
    reloc_off, payload_off, scratch_off = header[4], header[8], header[10]
    assert reloc_off % 8 == 0
    assert payload_off % 8 == 0
    assert scratch_off % 8 == 0
