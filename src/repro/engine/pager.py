"""Slotted pages: the physical unit of table storage.

Each page is a fixed 8 KiB buffer with a header, a record area growing
upward, and a slot directory growing downward from the page end.  Records
are addressed by ``(page_id, slot)`` and may be relocated *within* a page by
compaction, never across pages — a record's RowId is stable for its lifetime.

The byte buffer is the authoritative state (it is what gets persisted and
what an attacker edits); the Python object additionally caches the header
fields, the dead-slot free list and the live-byte total so the insert hot
path never scans the slot directory.  All mutations write through to the
buffer, so the cache can always be rebuilt from bytes (see ``__init__``).

Mirroring SQL Server, the maximum record size is 8060 bytes.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StorageError

PAGE_SIZE = 8192
PAGE_MAGIC = 0x5D1A  # "SLot Directory pAge"
MAX_RECORD_SIZE = 8060

_HEADER = struct.Struct(">HIHH")  # magic, page_id, slot_count, free_offset
_SLOT = struct.Struct(">HH")      # record offset, record length
HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Slot entry meaning "empty / deleted".
_DEAD = (0, 0)


class Page:
    """One slotted page over a mutable 8 KiB buffer."""

    __slots__ = ("buf", "page_id", "_slot_count", "_free_offset",
                 "_dead_slots", "_live_bytes")

    def __init__(self, page_id: int, buf: Optional[bytearray] = None) -> None:
        if buf is None:
            self.buf = bytearray(PAGE_SIZE)
            self.page_id = page_id
            self._slot_count = 0
            self._free_offset = HEADER_SIZE
            self._dead_slots: List[int] = []
            self._live_bytes = 0
            self._write_header()
        else:
            if len(buf) != PAGE_SIZE:
                raise StorageError(f"page buffer must be {PAGE_SIZE} bytes")
            self.buf = buf
            magic, stored_id, slot_count, free_offset = _HEADER.unpack_from(buf, 0)
            if magic != PAGE_MAGIC:
                raise StorageError(f"bad page magic 0x{magic:04x} on page {page_id}")
            self.page_id = stored_id
            self._slot_count = slot_count
            self._free_offset = free_offset
            self._dead_slots = []
            self._live_bytes = 0
            for slot in range(slot_count):
                offset, length = self._read_slot(slot)
                if (offset, length) == _DEAD:
                    self._dead_slots.append(slot)
                else:
                    self._live_bytes += length

    # -- header access -------------------------------------------------------

    def _write_header(self) -> None:
        _HEADER.pack_into(
            self.buf, 0, PAGE_MAGIC, self.page_id,
            self._slot_count, self._free_offset,
        )

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def free_offset(self) -> int:
        return self._free_offset

    @property
    def live_count(self) -> int:
        """Live records on the page, from the cached slot accounting."""
        return self._slot_count - len(self._dead_slots)

    def _slot_entry_offset(self, slot: int) -> int:
        return PAGE_SIZE - (slot + 1) * SLOT_SIZE

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self._slot_count:
            raise StorageError(f"slot {slot} out of range on page {self.page_id}")
        return _SLOT.unpack_from(self.buf, self._slot_entry_offset(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.buf, self._slot_entry_offset(slot), offset, length)

    # -- space accounting ------------------------------------------------------

    def free_space(self) -> int:
        """Contiguous bytes available for a new record (excluding a new slot)."""
        return PAGE_SIZE - self._slot_count * SLOT_SIZE - self._free_offset

    def free_space_after_compaction(self) -> int:
        """Free space achievable by compacting the record area."""
        return (
            PAGE_SIZE - self._slot_count * SLOT_SIZE - HEADER_SIZE
            - self._live_bytes
        )

    def can_fit(self, record_len: int) -> bool:
        """Could a new record of this length be inserted (new slot included)?"""
        slot_cost = 0 if self._dead_slots else SLOT_SIZE
        if record_len + slot_cost <= self.free_space():
            return True
        return record_len + slot_cost <= self.free_space_after_compaction()

    def can_replace(self, slot: int, record_len: int) -> bool:
        """Could :meth:`overwrite` put a record of this length in ``slot``?"""
        return record_len <= (
            self._read_slot(slot)[1] + self.free_space_after_compaction()
        )

    # -- record operations -------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record, returning its slot number.

        Reuses a dead slot when one exists; compacts the page if the record
        area is fragmented.  Raises :class:`StorageError` when the record
        genuinely does not fit.
        """
        self._check_record(record)
        slot_cost = 0 if self._dead_slots else SLOT_SIZE
        if len(record) + slot_cost > self.free_space():
            if len(record) + slot_cost > self.free_space_after_compaction():
                raise StorageError(
                    f"record of {len(record)} bytes does not fit on page "
                    f"{self.page_id}"
                )
            self._compact()
        offset = self._free_offset
        self.buf[offset : offset + len(record)] = record
        if self._dead_slots:
            slot = self._dead_slots.pop()
        else:
            slot = self._slot_count
            self._slot_count += 1
        self._free_offset = offset + len(record)
        self._live_bytes += len(record)
        self._write_header()
        self._write_slot(slot, offset, len(record))
        return slot

    def append(self, records: Sequence[bytes]) -> int:
        """Put ``records`` in new slots after the last, contiguous from the
        free offset, returning the first slot: the bytes :meth:`insert`
        apiece leaves on a page with no dead slot and no need to compact,
        written with one slice assignment, one slot run and one header.
        Raises :class:`StorageError`, changing nothing, if they do not fit."""
        first, offset, count = self._slot_count, self._free_offset, len(records)
        data = b"".join(records)
        end = offset + len(data)
        if end + (first + count) * SLOT_SIZE > PAGE_SIZE:
            raise StorageError(
                f"{count} records of {len(data)} bytes do not fit on page "
                f"{self.page_id}"
            )
        self.buf[offset:end] = data
        directory = [0] * (2 * count)  # highest slot first, as on the page
        at = 2 * count
        for record in records:
            at -= 2
            directory[at] = offset
            directory[at + 1] = len(record)
            offset += len(record)
        struct.pack_into(
            f">{2 * count}H", self.buf, PAGE_SIZE - (first + count) * SLOT_SIZE,
            *directory,
        )
        self._slot_count = first + count
        self._free_offset = end
        self._live_bytes += len(data)
        self._write_header()
        return first

    def read(self, slot: int) -> bytes:
        """Read the record in ``slot``; raises if the slot is dead."""
        offset, length = self._read_slot(slot)
        if (offset, length) == _DEAD:
            raise StorageError(f"slot {slot} on page {self.page_id} is empty")
        return bytes(self.buf[offset : offset + length])

    def is_live(self, slot: int) -> bool:
        if not 0 <= slot < self._slot_count:
            return False
        return self._read_slot(slot) != _DEAD

    def delete(self, slot: int) -> None:
        """Mark a slot dead.  The record bytes become reclaimable garbage."""
        offset, length = self._read_slot(slot)
        if (offset, length) == _DEAD:
            raise StorageError(f"slot {slot} on page {self.page_id} already empty")
        self._write_slot(slot, *_DEAD)
        self._dead_slots.append(slot)
        self._live_bytes -= length

    def overwrite(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot`` (same-RowId update / restore / tamper).

        Shrinks in place; grows by appending to the free area (compacting if
        needed).  The slot number never changes.
        """
        self._check_record(record)
        offset, length = self._read_slot(slot)
        if (offset, length) == _DEAD:
            raise StorageError(f"slot {slot} on page {self.page_id} is empty")
        if len(record) <= length:
            self.buf[offset : offset + len(record)] = record
            self._write_slot(slot, offset, len(record))
            self._live_bytes += len(record) - length
            return
        # Grows: free the old space, then place at the end of the record area.
        self._write_slot(slot, *_DEAD)
        self._live_bytes -= length
        if len(record) > self.free_space():
            if len(record) > self.free_space_after_compaction():
                self._write_slot(slot, offset, length)  # roll back the kill
                self._live_bytes += length
                raise StorageError(
                    f"record of {len(record)} bytes does not fit on page "
                    f"{self.page_id} for overwrite"
                )
            self._compact()
        new_offset = self._free_offset
        self.buf[new_offset : new_offset + len(record)] = record
        self._free_offset = new_offset + len(record)
        self._live_bytes += len(record)
        self._write_header()
        self._write_slot(slot, new_offset, len(record))

    def restore(self, slot: int, record: bytes) -> None:
        """Force ``slot`` to contain ``record``, creating slots as needed.

        Used by undo of a delete, and idempotent: the slot may be missing,
        dead, or already hold the record.
        """
        self._check_record(record)
        while self._slot_count <= slot:
            self._write_slot(self._slot_count, *_DEAD)
            self._dead_slots.append(self._slot_count)
            self._slot_count += 1
        self._write_header()
        if self._read_slot(slot) != _DEAD:
            self.overwrite(slot, record)
            return
        if len(record) > self.free_space():
            if len(record) > self.free_space_after_compaction():
                raise StorageError(
                    f"record of {len(record)} bytes does not fit on page "
                    f"{self.page_id} for restore"
                )
            self._compact()
        offset = self._free_offset
        self.buf[offset : offset + len(record)] = record
        self._free_offset = offset + len(record)
        self._live_bytes += len(record)
        self._dead_slots.remove(slot)
        self._write_header()
        self._write_slot(slot, offset, len(record))

    def redo(self, writes: Mapping[int, Optional[bytes]], top: int) -> None:
        """Redo a folded log with one layout of the page: each slot in
        ``writes`` ends up holding its last logged record, or dead for None,
        and every slot up to ``top``, the highest ever restored (-1: none),
        exists.  Raises :class:`StorageError` if the result does not fit."""
        records = dict(self.records())
        for slot, record in writes.items():
            if record is None:
                records.pop(slot, None)
            else:
                self._check_record(record)
                records[slot] = record
        slot_count = max(self._slot_count, top + 1)
        self._lay_out(records, slot_count)
        self._dead_slots = [s for s in range(slot_count) if s not in records]

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, record_bytes)`` for every live slot."""
        for slot in range(self._slot_count):
            offset, length = self._read_slot(slot)
            if (offset, length) != _DEAD:
                yield slot, bytes(self.buf[offset : offset + length])

    # -- internals ----------------------------------------------------------------

    def _compact(self) -> None:
        """Rewrite the record area contiguously, preserving slot numbers."""
        self._lay_out(dict(self.records()), self._slot_count)

    def _lay_out(self, records: Mapping[int, bytes], slot_count: int) -> None:
        """Rewrite the whole page: ``records`` (slot → bytes) contiguous in slot
        order, every other slot below ``slot_count`` dead, the free area
        zeroed.  The dead-slot list is the caller's to keep."""
        slots = sorted(records)
        free_offset = HEADER_SIZE + sum(len(records[s]) for s in slots)
        gap = PAGE_SIZE - slot_count * SLOT_SIZE - free_offset
        if gap < 0:
            raise StorageError(
                f"{slot_count} slots and their records overflow page {self.page_id}"
            )
        directory = [0] * (2 * slot_count)  # highest slot first, as on the page
        offset = HEADER_SIZE
        for slot in slots:
            at = 2 * (slot_count - 1 - slot)
            directory[at : at + 2] = offset, len(records[slot])
            offset += len(records[slot])
        self.buf[:] = b"".join((
            _HEADER.pack(PAGE_MAGIC, self.page_id, slot_count, free_offset),
            *(records[s] for s in slots),
            bytes(gap),
            struct.pack(f">{2 * slot_count}H", *directory),
        ))
        self._slot_count = slot_count
        self._free_offset = free_offset
        self._live_bytes = free_offset - HEADER_SIZE

    @staticmethod
    def _check_record(record: bytes) -> None:
        if len(record) > MAX_RECORD_SIZE:
            raise StorageError(
                f"record of {len(record)} bytes exceeds the {MAX_RECORD_SIZE}-byte "
                "row size limit"
            )
        if not record:
            raise StorageError("empty records are not storable")
