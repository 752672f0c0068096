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
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.engine.pager import HEADER_SIZE, PAGE_SIZE, SLOT_SIZE, Page
from repro.errors import InjectedCrashError, StorageError
from repro.faults import FAULTS

#: Legacy uncompressed image: header, then ``page_count`` raw pages.
_FILE_MAGIC = b"SLHF"
#: Compressed image: header, then per page ``uint32 comp_len`` + zlib bytes.
#: The magic makes every image self-describing, so files written before
#: compression existed keep loading unchanged.
_FILE_MAGIC_COMPRESSED = b"SLHZ"
_FILE_HEADER = struct.Struct(">4sI")  # magic, page count
_COMP_LEN = struct.Struct(">I")

#: zlib level for heap images; configurable via :func:`set_compression`.
DEFAULT_COMPRESSION_LEVEL = 3

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


@dataclass(frozen=True, order=True)
class RowId:
    """Physical address of a record: page number and slot within the page."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"RowId({self.page_id}:{self.slot})"


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
        room, size = self._room, len(record)
        while room and not self._pages[room[0]].can_fit(size):
            self._in_room.discard(heapq.heappop(room))
        if not room:
            self._append_page()
        page_id = room[0]
        page = self._pages[page_id]
        slot = page.insert(record)
        if not page.can_fit(size):  # full for records of this size
            self._in_room.discard(heapq.heappop(room))
        return RowId(page_id, slot)

    def read(self, rid: RowId) -> bytes:
        """Read the record at ``rid``; raises when absent."""
        return self._page(rid.page_id).read(rid.slot)

    def exists(self, rid: RowId) -> bool:
        if not 0 <= rid.page_id < len(self._pages):
            return False
        return self._pages[rid.page_id].is_live(rid.slot)

    def delete(self, rid: RowId) -> None:
        """Remove the record at ``rid``."""
        self._page(rid.page_id).delete(rid.slot)
        self._make_room(rid.page_id)

    def overwrite(self, rid: RowId, record: bytes) -> None:
        """Replace the record at ``rid`` in place (RowId preserved)."""
        self._page(rid.page_id).overwrite(rid.slot, record)

    # -- recovery (idempotent) ---------------------------------------------------

    def restore(self, rid: RowId, record: bytes) -> None:
        """Force ``rid`` to contain ``record`` (undo); creates pages/slots."""
        while len(self._pages) <= rid.page_id:
            self._append_page()
        self._pages[rid.page_id].restore(rid.slot, record)

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

    @classmethod
    def packed(
        cls, name: str, records: Iterable[bytes]
    ) -> Tuple["HeapFile", List[RowId]]:
        """A fresh heap holding ``records``, each on the page and slot one
        :meth:`insert` apiece would give it, every page laid out once.
        Returns the heap and the records' RowIds in input order."""
        heap, rids = cls(name), []
        pages: List[List[bytes]] = []
        free: List[int] = []  # per page: a fresh page has no holes
        # Without deletes, the pages with room are always the ones from
        # ``lowest`` on.
        lowest = 0
        for record in records:
            Page._check_record(record)  # noqa: SLF001 - same subsystem
            need = len(record) + SLOT_SIZE
            while lowest < len(pages) and free[lowest] < need:
                lowest += 1
            if lowest == len(pages):
                pages.append([])
                free.append(PAGE_SIZE - HEADER_SIZE)
            rids.append(RowId(lowest, len(pages[lowest])))
            pages[lowest].append(record)
            free[lowest] -= need
            if free[lowest] < need:
                lowest += 1
        for slots in pages:
            heap._append_page()._lay_out(dict(enumerate(slots)), len(slots))
        heap._room = list(range(lowest, len(pages)))
        heap._in_room = set(heap._room)
        return heap, rids

    # -- scanning -------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, bytes]]:
        """Yield every live record in physical (page, slot) order."""
        for page in self._pages:
            for slot, record in page.records():
                yield RowId(page.page_id, slot), record

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
        self._page(rid.page_id).overwrite(rid.slot, record)

    def tamper_delete(self, rid: RowId) -> None:
        """Drop a record directly from the page image (history erasure)."""
        self._page(rid.page_id).delete(rid.slot)

    # -- persistence -------------------------------------------------------------

    def flush(
        self,
        path: str,
        compress: bool = True,
        level: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Write all pages to ``path`` atomically (write-then-rename).

        Images are zlib-compressed per page by default (``SLHZ`` magic);
        ``compress=False`` writes the legacy fixed-size ``SLHF`` layout.
        Returns ``(raw_bytes, written_bytes)`` so callers can export the
        compression ratio as a metric.
        """
        if level is None:
            level = DEFAULT_COMPRESSION_LEVEL
        FAULTS.fire("heap.flush", heap=self.name)
        tmp_path = path + ".tmp"
        magic = _FILE_MAGIC_COMPRESSED if compress else _FILE_MAGIC
        raw_bytes = len(self._pages) * PAGE_SIZE
        written = _FILE_HEADER.size
        with open(tmp_path, "wb") as f:
            f.write(_FILE_HEADER.pack(magic, len(self._pages)))
            for page in self._pages:
                FAULTS.fire("pager.page_write", heap=self.name, page=page.page_id)
                payload = (
                    zlib.compress(bytes(page.buf), level)
                    if compress
                    else bytes(page.buf)
                )
                if FAULTS.triggered(
                    "pager.torn_page", heap=self.name, page=page.page_id
                ):
                    f.write(payload[: len(payload) // 2])
                    f.flush()
                    raise InjectedCrashError("pager.torn_page")
                if compress:
                    f.write(_COMP_LEN.pack(len(payload)))
                    written += _COMP_LEN.size
                f.write(payload)
                written += len(payload)
            f.flush()
            os.fsync(f.fileno())
        FAULTS.fire("heap.rename", heap=self.name)
        os.replace(tmp_path, path)
        return raw_bytes, written

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
