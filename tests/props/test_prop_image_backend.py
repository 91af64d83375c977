"""Copy-on-write oracle for the vmsh-blk image backend.

``MappedImageBackend`` serves one shared read-only image and keeps its
own copy of each chunk it writes.  The reference is a flat
``bytearray`` copy of the whole image, which is what the backend used
to make on every attach: after any sequence of sector-aligned reads
and writes, the backend must read, snapshot and charge exactly what
the reference does, and the shared image must not change.
"""

import copy
import hashlib
import io
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.snapshot import _ImageLoader, _ImageWriter, _restore_by_place
from repro.errors import VirtioError
from repro.units import SECTOR_SIZE
from repro.virtio.blk import MappedImageBackend

PER_CHUNK = MappedImageBackend.CHUNK // SECTOR_SIZE
MAX_COUNT = (1 << 20) // SECTOR_SIZE            # a 1 MiB request
#: 1.5 MiB and three sectors, so the last chunk is a partial one
SECTORS = 3 * (1 << 19) // SECTOR_SIZE + 3
IMAGE = random.Random(0x564D5348).randbytes(SECTORS * SECTOR_SIZE)
KINDS = ("bytes", "read-only view", "bytearray")


class _Ledger:
    """Stands in for the cost model: records each memcpy's length."""

    def __init__(self):
        self.copied = []

    def memcpy(self, nbytes):
        self.copied.append(nbytes)


def _image(kind):
    """The image as a caller may hand it over."""
    if kind == "bytes":
        return IMAGE
    if kind == "read-only view":
        return memoryview(IMAGE)
    return bytearray(IMAGE)


@st.composite
def _requests(draw):
    """``(write, sector, count, seed)``: 1 sector to 1 MiB, anywhere,
    across a chunk boundary, or at either end of the image."""
    count = draw(st.one_of(st.integers(1, 2 * PER_CHUNK),
                           st.integers(1, MAX_COUNT)))
    where = draw(st.sampled_from(("anywhere", "boundary", "first", "last")))
    if where == "anywhere":
        sector = draw(st.integers(0, SECTORS - count))
    elif where == "boundary":
        boundary = draw(st.integers(1, SECTORS // PER_CHUNK)) * PER_CHUNK
        sector = boundary - draw(st.integers(1, count))
    else:
        sector = 0 if where == "first" else SECTORS - count
    sector = max(0, min(sector, SECTORS - count))
    return draw(st.booleans()), sector, count, draw(st.integers(0, 2**32))


def _apply(backend, requests, reference=None):
    for write, sector, count, seed in requests:
        if write:
            data = random.Random(seed).randbytes(count * SECTOR_SIZE)
            backend.write(sector, data)
            if reference is not None:
                reference[sector * SECTOR_SIZE : (sector + count) * SECTOR_SIZE] = data
        else:
            backend.read(sector, count)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS),
       requests=st.lists(_requests(), min_size=1, max_size=10))
def test_backend_reads_and_charges_what_a_flat_copy_does(kind, requests):
    image, ledger = _image(kind), _Ledger()
    backend = MappedImageBackend(ledger, image)
    reference, charged = bytearray(IMAGE), []
    digests = hashlib.sha256(image).digest(), hashlib.sha256(backend._base).digest()
    for request in requests:
        _, sector, count, _ = request
        _apply(backend, [request], reference)
        start, end = sector * SECTOR_SIZE, (sector + count) * SECTOR_SIZE
        assert backend.read(sector, count) == reference[start:end]
        charged += [end - start] * 2
        assert ledger.copied == charged
        assert backend.snapshot() == reference
        assert (hashlib.sha256(image).digest(),
                hashlib.sha256(backend._base).digest()) == digests
    assert backend.capacity_sectors == SECTORS


def test_a_writable_image_is_copied_once_and_a_read_only_one_is_shared():
    image = bytearray(IMAGE)
    backend = MappedImageBackend(_Ledger(), image)
    image[: 3 * SECTOR_SIZE] = bytes(3 * SECTOR_SIZE)
    image[-SECTOR_SIZE:] = bytes(SECTOR_SIZE)
    assert backend.read(0, 3) == IMAGE[: 3 * SECTOR_SIZE]
    assert backend.snapshot() == IMAGE
    view = memoryview(IMAGE)
    assert MappedImageBackend(_Ledger(), view)._base is view


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS),
       before=st.lists(_requests(), max_size=6),
       after=st.lists(_requests(), min_size=1, max_size=6))
def test_round_trips_keep_the_contents(kind, before, after):
    ledger = _Ledger()
    backend = MappedImageBackend(ledger, _image(kind))
    _apply(backend, before)
    contents = backend.snapshot()
    if kind != "read-only view":        # a memoryview does not pickle
        assert pickle.loads(pickle.dumps(backend)).snapshot() == contents
        assert copy.deepcopy(backend).snapshot() == contents
    # A snapshot image keeps a shared view by reference and copies
    # only the chunks the backend wrote.
    buffer = io.BytesIO()
    writer = _ImageWriter(buffer, [ledger], own=None)
    writer.dump(backend)
    image = buffer.getvalue()
    loaded = _ImageLoader(image, writer.refs).load()
    assert loaded.snapshot() == contents
    if kind == "read-only view":
        assert loaded._base is backend._base
        assert len(image) < sum(map(len, backend._chunks.values())) + 4096
    # Restore by place rewinds the chunk table: what was written after
    # the capture reads the captured bytes, or the base, again.
    _apply(backend, after)
    _restore_by_place(_ImageLoader(image, writer.refs).load(), backend, writer.refs)
    assert backend.snapshot() == contents
    assert backend._chunks.keys() == loaded._chunks.keys()


def test_errors_keep_their_messages():
    ledger = _Ledger()
    with pytest.raises(VirtioError, match="^image is read-only$"):
        MappedImageBackend(ledger, IMAGE, writable=False).write(0, bytes(SECTOR_SIZE))
    backend = MappedImageBackend(ledger, IMAGE)
    with pytest.raises(VirtioError,
                       match="^image write of 5 bytes is not a sector multiple$"):
        backend.write(0, b"short")
    with pytest.raises(VirtioError, match="^read beyond image end$"):
        backend.read(SECTORS - 1, 2)
    with pytest.raises(VirtioError, match="^write beyond image end$"):
        backend.write(SECTORS, bytes(SECTOR_SIZE))
    assert ledger.copied == []
