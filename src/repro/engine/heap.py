"""Heap files: a table's record storage as a sequence of slotted pages.

A heap file owns the page images for one table (or one nonclustered index).
Pages live in memory and are flushed to a single on-disk file at checkpoint;
:meth:`HeapFile.load` reads them back.  RowIds — ``(page_id, slot)`` pairs —
are stable for the lifetime of a record.

The heap deliberately exposes :meth:`tamper_record`: the paper's threat model
includes adversaries who edit database files directly, bypassing the engine,
the WAL and the ledger.  Tampering goes straight into the page image, exactly
like an attacker with filesystem access, and is invisible to every layer
above until ledger verification recomputes the hashes.
"""

from __future__ import annotations

import heapq
import os
import struct
import zlib
from itertools import repeat
from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.pager import PAGE_SIZE, SLOT_SIZE, Page
from repro.errors import InjectedCrashError, StorageError
from repro.faults import FAULTS

#: Legacy uncompressed image: header, then ``page_count`` raw pages.  Read,
#: never written.
_FILE_MAGIC = b"SLHF"
#: Compressed image: header, then per page ``uint32 comp_len`` + zlib bytes.
#: The magic makes every image self-describing, so files written before
#: compression existed keep loading unchanged.
_FILE_MAGIC_COMPRESSED = b"SLHZ"
_FILE_HEADER = struct.Struct(">4sI")  # magic, page count
_COMP_LEN = struct.Struct(">I")

#: zlib level for heap images.
_COMPRESSION_LEVEL = 3

FAULTS.register(
    "heap.flush",
    "Before a heap file's temp image is written at checkpoint.  Blast "
    "radius: none on disk — the previous image and WAL stay authoritative.",
)
FAULTS.register(
    "pager.page_write",
    "Before an individual page buffer is written into the temp heap image. "
    "The temp file is left partial; the rename never happens.",
)
FAULTS.register(
    "pager.torn_page",
    "Crash mid-page: half a page reaches the temp image, then the process "
    "dies.  Because the image is only renamed into place after a full "
    "fsync, a torn page can never surface in the live file.",
    kind="tear",
)
FAULTS.register(
    "heap.rename",
    "After the temp heap image is fsynced but before it replaces the live "
    "file.  The old image survives; recovery replays from the WAL.",
)


#: Physical address of a record: ``(page_id, slot)``, an exact tuple of two
#: ints, built with a literal and read by unpacking.  It orders, compares and
#: hashes as the pair in C, and the cyclic garbage collector untracks such a
#: tuple at the first collection it survives — so the addresses the index
#: trees hold, one or two per row, cost a full collection nothing.  An
#: instance of a subclass (a dataclass, a NamedTuple) stays tracked for life.
RowId = Tuple[int, int]


class HeapFile:
    """Page-based record storage for one table or index.

    Insert placement keeps the pages that may have room: a record goes to
    the lowest of them that can take it, else to a fresh page.  A page
    leaves that set when it cannot take the record being placed (or, having
    taken it, another of the same size), and comes back when a record on it
    is deleted — so a heap of full pages probes O(1) pages per insert,
    however many there are.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._pages: List[Page] = []
        #: The pages that may have room: a min-heap, and the same ids as a set.
        self._room: List[int] = []
        self._in_room: Set[int] = set()

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> RowId:
        """Insert a record somewhere with room; returns its new RowId."""
        return self.insert_many((record,))[0]

    def insert_many(self, records: Sequence[bytes]) -> List[RowId]:
        """Insert ``records`` in order; returns their RowIds.

        Each record gets the RowId one :meth:`insert` apiece would give it,
        and the pages end up holding the same bytes, but a run of records
        that a page takes after its last slot, with no compaction, is
        written at once (:meth:`Page.append`).  A record on its own — the
        batch's last, one reusing a dead slot, or one the page must compact
        for — goes through :meth:`Page.insert`.  Every record is checked
        before any is placed, so a record no page could hold changes nothing.
        """
        for record in records:
            Page._check_record(record)  # noqa: SLF001 - same subsystem
        rids: List[RowId] = []
        pages, room = self._pages, self._room
        at, count = 0, len(records)
        while at < count:
            size = len(records[at])
            while room and not pages[room[0]].can_fit(size):
                self._in_room.discard(heapq.heappop(room))
            if not room:
                self._append_page()
            page_id = room[0]
            page = pages[page_id]
            # The run this page takes: records that fit its free area, up to
            # one after which another of that size would not fit.
            end, full = at, False
            if count - at > 1 and page.live_count == page.slot_count:
                free = page.free_space()
                spare = page.free_space_after_compaction()
                while end < count:
                    need = len(records[end]) + SLOT_SIZE
                    if need > free:
                        break
                    free, spare, end = free - need, spare - need, end + 1
                    if need > spare:
                        full = True
                        break
            if end - at > 1:
                first = page.append(records[at:end])
                rids.extend(zip(repeat(page_id), range(first, first + end - at)))
                at = end
            else:
                rids.append((page_id, page.insert(records[at])))
                at += 1
                full = not page.can_fit(size)
            if full:  # for records of the size it last took
                self._in_room.discard(heapq.heappop(room))
        return rids

    def read(self, rid: RowId) -> bytes:
        """Read the record at ``rid``; raises when absent."""
        page_id, slot = rid
        return self._page(page_id).read(slot)

    def exists(self, rid: RowId) -> bool:
        page_id, slot = rid
        if not 0 <= page_id < len(self._pages):
            return False
        return self._pages[page_id].is_live(slot)

    def delete(self, rid: RowId) -> None:
        """Remove the record at ``rid``."""
        page_id, slot = rid
        self._page(page_id).delete(slot)
        self._make_room(page_id)

    def overwrite(self, rid: RowId, record: bytes) -> bool:
        """Replace the record at ``rid``, keeping its RowId, if its page can
        hold the new one; returns False, changing nothing, if it cannot.

        A record that shrinks or keeps its size is written where the old
        one lies; one that grows goes to the page's free area, and the page
        is compacted only if that area is too small.
        """
        page_id, slot = rid
        page = self._page(page_id)
        if not page.can_replace(slot, len(record)):
            return False
        before = page.free_space_after_compaction()
        page.overwrite(slot, record)
        if page.free_space_after_compaction() > before:
            self._make_room(page_id)
        return True

    # -- recovery (idempotent) ---------------------------------------------------

    def restore(self, rid: RowId, record: bytes) -> None:
        """Force ``rid`` to contain ``record`` (undo); creates pages/slots."""
        page_id, slot = rid
        while len(self._pages) <= page_id:
            self._append_page()
        self._pages[page_id].restore(slot, record)

    def redo(
        self, pages: Mapping[int, Tuple[int, Mapping[int, Optional[bytes]]]]
    ) -> None:
        """Redo a folded log with one :meth:`Page.redo` per page id in
        ``pages`` (→ highest slot restored, slot → last write).  Pages up to
        the highest one restored to are created, as sequential replay does."""
        last = max((p for p, (top, _) in pages.items() if top >= 0), default=-1)
        while len(self._pages) <= last:
            self._append_page()
        for page_id, (top, writes) in pages.items():
            if page_id < len(self._pages):
                self._pages[page_id].redo(writes, top)

    # -- scanning -------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, bytes]]:
        """Yield every live record in physical (page, slot) order."""
        for page in self._pages:
            page_id = page.page_id
            for slot, record in page.records():
                yield (page_id, slot), record

    def pages(self) -> Iterator[Tuple[bytes, Iterator[bytes]]]:
        """Yield, per page in physical order, a copy of its exact 8 KiB
        image and an iterator over its live records in slot order.

        The records are sliced only when the iterator is consumed, so a
        caller that recognises an image pays nothing per record; consume
        each iterator before the heap changes.  The records, taken page by
        page, are those :meth:`scan` yields.
        """
        for page in self._pages:
            yield bytes(page.buf), (record for _, record in page.records())

    def record_count(self) -> int:
        """Live records, from each page's slot accounting: O(pages)."""
        return sum(page.live_count for page in self._pages)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- tampering (storage-level attack surface) ---------------------------------

    def tamper_record(self, rid: RowId, record: bytes) -> None:
        """Overwrite record bytes directly in the page image.

        This bypasses the WAL, the transaction manager and the ledger — it
        models an adversary editing the database files.  Nothing above the
        storage layer observes the change until verification.
        """
        page_id, slot = rid
        self._page(page_id).overwrite(slot, record)

    def tamper_delete(self, rid: RowId) -> None:
        """Drop a record directly from the page image (history erasure)."""
        page_id, slot = rid
        self._page(page_id).delete(slot)

    # -- persistence -------------------------------------------------------------

    def flush(self, path: str) -> None:
        """Write all pages to ``path`` atomically (write-then-rename), each
        page zlib-compressed (``SLHZ`` magic)."""
        FAULTS.fire("heap.flush", heap=self.name)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as f:
            f.write(_FILE_HEADER.pack(_FILE_MAGIC_COMPRESSED, len(self._pages)))
            for page in self._pages:
                FAULTS.fire("pager.page_write", heap=self.name, page=page.page_id)
                payload = zlib.compress(bytes(page.buf), _COMPRESSION_LEVEL)
                if FAULTS.triggered(
                    "pager.torn_page", heap=self.name, page=page.page_id
                ):
                    f.write(payload[: len(payload) // 2])
                    f.flush()
                    raise InjectedCrashError("pager.torn_page")
                f.write(_COMP_LEN.pack(len(payload)))
                f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        FAULTS.fire("heap.rename", heap=self.name)
        os.replace(tmp_path, path)

    @classmethod
    def load(cls, name: str, path: str) -> "HeapFile":
        """Load a heap image; the magic says whether pages are compressed."""
        heap = cls(name)
        with open(path, "rb") as f:
            header = f.read(_FILE_HEADER.size)
            if len(header) != _FILE_HEADER.size:
                raise StorageError(f"heap file {path!r} truncated header")
            magic, page_count = _FILE_HEADER.unpack(header)
            if magic == _FILE_MAGIC:
                for page_id in range(page_count):
                    buf = bytearray(f.read(PAGE_SIZE))
                    if len(buf) != PAGE_SIZE:
                        raise StorageError(
                            f"heap file {path!r} truncated at page {page_id}"
                        )
                    heap._append_page(Page(page_id, buf))
            elif magic == _FILE_MAGIC_COMPRESSED:
                for page_id in range(page_count):
                    len_bytes = f.read(_COMP_LEN.size)
                    if len(len_bytes) != _COMP_LEN.size:
                        raise StorageError(
                            f"heap file {path!r} truncated at page {page_id}"
                        )
                    (comp_len,) = _COMP_LEN.unpack(len_bytes)
                    payload = f.read(comp_len)
                    if len(payload) != comp_len:
                        raise StorageError(
                            f"heap file {path!r} truncated at page {page_id}"
                        )
                    try:
                        buf = bytearray(zlib.decompress(payload))
                    except zlib.error as exc:
                        raise StorageError(
                            f"heap file {path!r} page {page_id} failed to "
                            f"decompress: {exc}"
                        ) from exc
                    if len(buf) != PAGE_SIZE:
                        raise StorageError(
                            f"heap file {path!r} page {page_id} decompressed "
                            f"to {len(buf)} bytes, expected {PAGE_SIZE}"
                        )
                    heap._append_page(Page(page_id, buf))
            else:
                raise StorageError(f"heap file {path!r} has bad magic {magic!r}")
        return heap

    # -- internals ------------------------------------------------------------------

    def _page(self, page_id: int) -> Page:
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"page {page_id} does not exist in heap {self.name!r}"
            )
        return self._pages[page_id]

    def _append_page(self, page: Optional[Page] = None) -> Page:
        """Add a page (a fresh one by default) at the end; it may have room."""
        if page is None:
            page = Page(len(self._pages))
        self._pages.append(page)
        self._make_room(len(self._pages) - 1)
        return page

    def _make_room(self, page_id: int) -> None:
        if page_id not in self._in_room:
            self._in_room.add(page_id)
            heapq.heappush(self._room, page_id)

    def __repr__(self) -> str:
        return f"<HeapFile {self.name!r} pages={len(self._pages)}>"
