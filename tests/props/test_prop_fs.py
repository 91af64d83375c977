"""Property tests: the filesystem against a dict-of-bytes oracle."""

from hypothesis import given, settings, strategies as st

from repro.errors import VfsError
from repro.guestos.blockcore import MemoryBlockDevice
from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.guestos.vfs import MountNamespace, O_CREAT, O_RDWR, Vfs
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB


def _vfs(device_backed: bool) -> Vfs:
    costs = CostModel(Clock())
    if device_backed:
        fs = Filesystem(
            "xfs", device=MemoryBlockDevice("d", 16 * MiB),
            cache=PageCache(costs), costs=costs,
        )
    else:
        fs = Filesystem("tmpfs", costs=costs)
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    return vfs


op_strategy = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=9),          # file index
        st.integers(min_value=0, max_value=20_000),     # offset
        st.binary(min_size=1, max_size=9_000),
    ),
    st.tuples(
        st.just("truncate"),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=30_000),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("sync")),
)


@given(
    device_backed=st.booleans(),
    ops=st.lists(op_strategy, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_fs_matches_oracle(device_backed, ops):
    """Random op sequences must match a plain dict-of-bytes model."""
    vfs = _vfs(device_backed)
    oracle = {}
    for op in ops:
        kind = op[0]
        if kind == "write":
            _, index, offset, data = op
            path = f"/f{index}"
            handle = vfs.open(path, {O_RDWR, O_CREAT})
            vfs.pwrite(handle, data, offset)
            vfs.close(handle)
            current = bytearray(oracle.get(path, b""))
            if len(current) < offset + len(data):
                current.extend(b"\x00" * (offset + len(data) - len(current)))
            current[offset : offset + len(data)] = data
            oracle[path] = bytes(current)
        elif kind == "truncate":
            _, index, size = op
            path = f"/f{index}"
            if path in oracle:
                vfs.truncate(path, size)
                current = oracle[path]
                oracle[path] = (
                    current[:size] + b"\x00" * max(0, size - len(current))
                )
        elif kind == "delete":
            _, index = op
            path = f"/f{index}"
            if path in oracle:
                vfs.unlink(path)
                del oracle[path]
        elif kind == "sync":
            root = vfs.ns.root_mount().fs
            root.sync_all()
            root.drop_caches()
    for path, expected in oracle.items():
        assert vfs.read_file(path) == expected
    for index in range(10):
        path = f"/f{index}"
        if path not in oracle:
            assert not vfs.exists(path)


@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=15,
        unique=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_readdir_is_sorted_and_complete(names):
    vfs = _vfs(False)
    for name in names:
        vfs.write_file(f"/{name}", b"x")
    listing = vfs.readdir("/")
    assert listing == sorted(names)


@given(
    depth=st.integers(min_value=1, max_value=12),
    payload=st.binary(min_size=0, max_size=100),
)
@settings(max_examples=30, deadline=None)
def test_nested_path_roundtrip(depth, payload):
    vfs = _vfs(False)
    path = "/" + "/".join(f"d{i}" for i in range(depth))
    vfs.makedirs(path)
    vfs.write_file(f"{path}/leaf", payload)
    assert vfs.read_file(f"{path}/leaf") == payload
    dotted = "/" + "/".join(f"d{i}/." for i in range(depth)) + "/leaf"
    assert vfs.read_file(dotted) == payload
