"""Diffing each written table page at flush does what noting each word did.

:class:`PageTableView` keeps, per written table page, the bytes it held
before its first write, and ``flush`` diffs the page against them.  The
reference below is the view as it was before: ``write_run`` notes the
value each word held before its first write, and ``flush`` sorts those
words and compares them one by one.  Over random sequences of
``write_run``, ``write_u64``, reads and flushes, on pages inside and
outside ``fresh``, both must read the same words, write the same
``write_vectored`` segments in the same order at every flush (adjacent
changed words merged into one segment, across a page boundary too),
keep the same ``journal`` and put back the same words on ``undo``:
every word outside ``fresh`` as it was before the view first wrote it.
The sequences rewrite words to the value they held, write runs that go
on into the next page (as ``map_range`` splits them, one ``write_run``
per page), and flush one view several times.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.arch import X86_64
from repro.mem.pagetable import PageTableView
from repro.units import PAGE_SIZE

PAGES = 4
WORDS = PAGE_SIZE // 8
_U64 = struct.Struct("<Q")
#: few values, so runs often write a word's old value back
VALUES = st.sampled_from([0, 1, 7, 1 << 63, (1 << 64) - 1])


class _Phys:
    """Guest memory that records every vectored write."""

    def __init__(self, words):
        self.mem = bytearray(struct.pack(f"<{len(words)}Q", *words))
        self.writes = []

    def read(self, paddr, length):
        return bytes(self.mem[paddr : paddr + length])

    def write_vectored(self, iov):
        self.writes.append([(paddr, bytes(data)) for paddr, data in iov])
        for paddr, data in iov:
            self.mem[paddr : paddr + len(data)] = data


class _ReferenceView:
    """The view's writes as they were: one noted value per word."""

    def __init__(self, phys, fresh):
        self._phys = phys
        self._fresh = fresh
        self._pages = {}
        self._before = {}           # word paddr -> value before
        self.journal = []

    def _page(self, base):
        if base not in self._pages:
            fresh = base in self._fresh
            self._pages[base] = bytearray(PAGE_SIZE) if fresh else bytearray(self._phys.read(base, PAGE_SIZE))
        return self._pages[base]

    def read_u64(self, paddr):
        return _U64.unpack_from(self._page(paddr & -PAGE_SIZE), paddr % PAGE_SIZE)[0]

    def read_run(self, paddr, count):
        return struct.unpack_from(f"<{count}Q", self._page(paddr & -PAGE_SIZE), paddr % PAGE_SIZE)

    def write_u64(self, paddr, value):
        self.write_run(paddr, (value & 0xFFFFFFFFFFFFFFFF,))

    def write_run(self, paddr, words):
        page = self._page(paddr & -PAGE_SIZE)
        offset, layout = paddr % PAGE_SIZE, f"<{len(words)}Q"
        olds = zip(range(paddr, paddr + len(words) * 8, 8),
                   struct.unpack_from(layout, page, offset))
        self._before.update({addr: old for addr, old in olds if addr not in self._before})
        struct.pack_into(layout, page, offset, *words)

    def flush(self):
        runs, end = [], -1
        for paddr in sorted(self._before):
            old = self._before[paddr]
            new = self.read_u64(paddr)
            if new == old:
                continue
            if paddr not in self._fresh:
                self.journal.append((paddr, old))
            if paddr == end:
                runs[-1][1].append(_U64.pack(new))
            else:
                runs.append((paddr, [_U64.pack(new)]))
            end = paddr + 8
        self._before.clear()
        if runs:
            self._phys.write_vectored([(start, b"".join(words)) for start, words in runs])

    def undo(self):
        first = {}
        for paddr, old in self.journal:
            first.setdefault(paddr, old)
        if first:
            self._phys.write_vectored([(paddr, _U64.pack(old)) for paddr, old in first.items()])


def _runs(paddr, words):
    """``words`` from ``paddr`` on, split at page boundaries."""
    while words:
        take = WORDS - paddr % PAGE_SIZE // 8
        yield paddr, words[:take]
        paddr, words = paddr + take * 8, words[take:]


#: a few values, repeated to fill a run or the memory
PATTERNS = st.lists(VALUES, min_size=1, max_size=9)


def _fill(pattern, count):
    return [pattern[index % len(pattern)] for index in range(count)]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, PAGES * WORDS - 1),
                  st.integers(1, WORDS + 40), PATTERNS),
        st.tuples(st.just("u64"), st.integers(0, PAGES * WORDS - 1),
                  VALUES | st.integers(-(1 << 63), (1 << 64) - 1)),
        st.tuples(st.just("read"), st.integers(0, PAGES * WORDS - 1), st.integers(1, 40)),
        st.tuples(st.just("flush")),
    ),
    max_size=25,
)


@given(
    memory=PATTERNS,
    fresh_pages=st.tuples(st.integers(0, PAGES), st.integers(0, PAGES)).map(sorted),
    ops=OPS,
)
@settings(max_examples=200, deadline=None)
def test_flush_matches_the_per_word_view(memory, fresh_pages, ops):
    fresh = range(fresh_pages[0] * PAGE_SIZE, fresh_pages[1] * PAGE_SIZE)
    # Memory in ``fresh`` is known to be zero: nothing has written it.
    memory = [0 if index * 8 in fresh else word
              for index, word in enumerate(_fill(memory, PAGES * WORDS))]
    new_phys, ref_phys = _Phys(memory), _Phys(memory)
    new, ref = PageTableView(new_phys, X86_64.walker, fresh), _ReferenceView(ref_phys, fresh)
    for op in ops + [("flush",)]:
        if op[0] == "run":
            _, index, count, pattern = op
            words = _fill(pattern, min(count, PAGES * WORDS - index))
            for paddr, run in _runs(index * 8, words):
                new.write_run(paddr, run)
                ref.write_run(paddr, run)
        elif op[0] == "u64":
            new.write_u64(op[1] * 8, op[2])
            ref.write_u64(op[1] * 8, op[2])
        elif op[0] == "read":
            paddr, count = op[1] * 8, min(op[2], WORDS - op[1] % WORDS)
            assert new.read_u64(paddr) == ref.read_u64(paddr)
            assert new.read_run(paddr, count) == ref.read_run(paddr, count)
        else:
            new.flush()
            ref.flush()
            assert new_phys.writes == ref_phys.writes
            assert new.journal == ref.journal
    assert new_phys.mem == ref_phys.mem
    new.undo()
    ref.undo()
    assert new_phys.writes == ref_phys.writes
    assert new_phys.mem == ref_phys.mem
    # Every word outside ``fresh`` is back to its value before the view.
    after = struct.unpack(f"<{PAGES * WORDS}Q", new_phys.mem)
    assert [word for index, word in enumerate(after) if index * 8 not in fresh] == [
        word for index, word in enumerate(memory) if index * 8 not in fresh
    ]


def test_a_run_into_the_next_page_flushes_as_one_segment():
    phys = _Phys([5] * (2 * WORDS))
    view = PageTableView(phys, X86_64.walker)
    for paddr, run in _runs(PAGE_SIZE - 16, [1, 4, 2, 3]):
        view.write_run(paddr, run)
    view.write_u64(PAGE_SIZE - 16, 5)               # back to its old value
    view.flush()
    assert phys.writes == [[(PAGE_SIZE - 8, b"".join(_U64.pack(w) for w in (4, 2, 3)))]]
    assert view.journal == [(PAGE_SIZE - 8, 5), (PAGE_SIZE, 5), (PAGE_SIZE + 8, 5)]


def test_undo_after_two_flushes_restores_the_word_before_the_view():
    phys = _Phys([0xA] * WORDS)
    view = PageTableView(phys, X86_64.walker)
    view.write_u64(8, 0xB)
    view.flush()
    view.write_u64(8, 0xC)
    view.flush()
    assert view.journal == [(8, 0xA), (8, 0xB)]
    view.undo()
    assert phys.writes[-1] == [(8, _U64.pack(0xA))]
    assert _U64.unpack_from(phys.mem, 8)[0] == 0xA
