"""Property tests: serialisation formats round-trip for all inputs."""

import string

from hypothesis import given, settings, strategies as st

from repro.guestos.blockcore import MemoryBlockDevice
from repro.guestos.symbols import ENTRY_SIZES, build_symbol_sections
from repro.guestos.version import KernelVersion
from repro.guestos.vfs import MountNamespace, Vfs
from repro.image.fsimage import ImageSpec, build_image, mount_image
from repro.mem.physmem import PhysicalMemory
from repro.sideload import build_blob, pack_config, parse_blob, unpack_config
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, SECTOR_SIZE

identifier = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=24)


@given(
    config=st.dictionaries(
        keys=st.text(alphabet=string.ascii_letters + "._-", min_size=1, max_size=32),
        values=st.binary(max_size=512),
        max_size=10,
    )
)
def test_config_tlv_roundtrip(config):
    assert unpack_config(pack_config(config)) == config


@given(
    program_id=identifier,
    reloc_names=st.lists(identifier.filter(lambda s: len(s) <= 31),
                         max_size=16, unique=True),
    payload=st.binary(max_size=4096),
)
@settings(max_examples=50)
def test_self_blob_roundtrip(program_id, reloc_names, payload):
    blob = build_blob(program_id, reloc_names, {"k": b"v"}, payload)
    parsed = parse_blob(lambda off, ln: blob[off : off + ln])
    assert parsed.program_id == program_id
    assert [r.name for r in parsed.relocs] == reloc_names
    assert parsed.payload == payload


@given(
    layout=st.sampled_from(sorted(ENTRY_SIZES)),
    symbols=st.dictionaries(
        keys=identifier,
        values=st.integers(min_value=0x1000, max_value=0xF0000),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=50)
def test_symbol_sections_decode_with_ground_truth(layout, symbols):
    """Build sections, then decode them with plain struct math."""
    mem = PhysicalMemory(4 * MiB)
    sections = build_symbol_sections(
        symbols, layout, strings_vaddr=0x200000, ksymtab_vaddr=0x100000,
        write=mem.write,
    )
    entry_size = ENTRY_SIZES[layout]
    recovered = {}
    for i in range(sections.entry_count):
        base = 0x100000 + i * entry_size
        if layout == "absolute":
            value = mem.read_u64(base)
            name_addr = mem.read_u64(base + 8)
        else:
            value = base + mem.read_i32(base)
            name_addr = base + 4 + mem.read_i32(base + 4)
        raw = mem.read(name_addr, 64)
        name = raw.split(b"\x00")[0].decode()
        recovered[name] = value
    assert recovered == symbols


@given(
    files=st.dictionaries(
        keys=st.lists(identifier, min_size=1, max_size=3).map(
            lambda parts: "/" + "/".join(parts)
        ),
        values=st.binary(min_size=0, max_size=20_000),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=30, deadline=None)
def test_image_roundtrip_arbitrary_trees(files):
    # Drop paths that are prefixes of others (a file cannot be a dir).
    keys = sorted(files)
    cleaned = {
        k: v
        for k, v in files.items()
        if not any(other != k and other.startswith(k + "/") for other in keys)
    }
    spec = ImageSpec()
    for path, content in cleaned.items():
        spec.add_file(path, content)
    image = build_image(spec)
    device = MemoryBlockDevice("img", max(len(image), 1 * MiB))
    device.write_sectors(0, bytes(image) + b"\x00" * (-len(image) % SECTOR_SIZE))
    fs = mount_image(device, costs=CostModel(Clock()))
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    for path, content in cleaned.items():
        assert vfs.read_file(path) == content


@given(major=st.integers(min_value=2, max_value=9),
       minor=st.integers(min_value=0, max_value=99))
def test_version_parse_roundtrip(major, minor):
    version = KernelVersion(major, minor)
    assert KernelVersion.parse(str(version)) == version


@given(
    a=st.tuples(st.integers(2, 9), st.integers(0, 99)),
    b=st.tuples(st.integers(2, 9), st.integers(0, 99)),
)
def test_version_ordering_total(a, b):
    va, vb = KernelVersion(*a), KernelVersion(*b)
    assert (va < vb) == ((a[0], a[1]) < (b[0], b[1]))
    assert (va == vb) == (a == b)
