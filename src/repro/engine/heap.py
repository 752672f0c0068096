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

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

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

#: Free bytes below which insert placement stops re-probing a page.
_NEARLY_FULL = 128

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

    Insert placement uses a simple free-space cache: the lowest page known to
    have room is tried first, falling back to appending a fresh page.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._pages: List[Page] = []
        self._first_free_hint = 0

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> RowId:
        """Insert a record somewhere with room; returns its new RowId."""
        for page_id in range(self._first_free_hint, len(self._pages)):
            page = self._pages[page_id]
            if page.can_fit(len(record)):
                slot = page.insert(record)
                self._first_free_hint = page_id
                return RowId(page_id, slot)
            if (
                page_id == self._first_free_hint
                and page.free_space_after_compaction() < _NEARLY_FULL
            ):
                # Nearly full page: stop re-probing it on every insert.
                self._first_free_hint = page_id + 1
        page = self._append_page()
        slot = page.insert(record)
        self._first_free_hint = max(self._first_free_hint, 0)
        return RowId(page.page_id, slot)

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
        self._first_free_hint = min(self._first_free_hint, rid.page_id)

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
        heap, rids, hint = cls(name), [], 0
        pages: List[List[bytes]] = []
        free: List[int] = []  # per page: a fresh page has no holes
        for record in records:
            Page._check_record(record)  # noqa: SLF001 - same subsystem
            need = len(record) + SLOT_SIZE
            for page_id in range(hint, len(pages)):
                if need <= free[page_id]:
                    hint = page_id
                    break
                if page_id == hint and free[page_id] < _NEARLY_FULL:
                    hint = page_id + 1
            else:
                page_id = len(pages)
                pages.append([])
                free.append(PAGE_SIZE - HEADER_SIZE)
            rids.append(RowId(page_id, len(pages[page_id])))
            pages[page_id].append(record)
            free[page_id] -= need
        for slots in pages:
            heap._append_page()._lay_out(dict(enumerate(slots)), len(slots))
        heap._first_free_hint = hint
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
        faults=None,
        compress: bool = True,
        level: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Write all pages to ``path`` atomically (write-then-rename).

        ``faults`` is the fault registry to fire through (the checkpoint
        path passes its database context's; default ``FAULTS``).

        Images are zlib-compressed per page by default (``SLHZ`` magic);
        ``compress=False`` writes the legacy fixed-size ``SLHF`` layout.
        Returns ``(raw_bytes, written_bytes)`` so callers can export the
        compression ratio as a metric.
        """
        if faults is None:
            faults = FAULTS
        if level is None:
            level = DEFAULT_COMPRESSION_LEVEL
        faults.fire("heap.flush", heap=self.name)
        tmp_path = path + ".tmp"
        magic = _FILE_MAGIC_COMPRESSED if compress else _FILE_MAGIC
        raw_bytes = len(self._pages) * PAGE_SIZE
        written = _FILE_HEADER.size
        with open(tmp_path, "wb") as f:
            f.write(_FILE_HEADER.pack(magic, len(self._pages)))
            for page in self._pages:
                faults.fire("pager.page_write", heap=self.name, page=page.page_id)
                payload = (
                    zlib.compress(bytes(page.buf), level)
                    if compress
                    else bytes(page.buf)
                )
                if faults.triggered(
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
        faults.fire("heap.rename", heap=self.name)
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
                    heap._pages.append(Page(page_id, buf))
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
                    heap._pages.append(Page(page_id, buf))
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

    def _append_page(self) -> Page:
        page = Page(len(self._pages))
        self._pages.append(page)
        return page

    def __repr__(self) -> str:
        return f"<HeapFile {self.name!r} pages={len(self._pages)}>"
