"""Tests for slotted pages and heap files."""

import heapq
import os
import random
import struct
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.heap import HeapFile
from repro.engine.pager import (
    HEADER_SIZE, MAX_RECORD_SIZE, MAX_SLOTS, PAGE_SIZE, SLOT_SIZE, Page,
)
from repro.errors import StorageError


class TestPage:
    def test_insert_and_read(self):
        page = Page(0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_inserts_get_distinct_slots(self):
        page = Page(0)
        slots = [page.insert(f"rec{i}".encode()) for i in range(10)]
        assert len(set(slots)) == 10
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"rec{i}".encode()

    def test_delete_then_read_fails(self):
        page = Page(0)
        slot = page.insert(b"bye")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_double_delete_fails(self):
        page = Page(0)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.delete(slot)

    def test_dead_slot_is_reused(self):
        page = Page(0)
        slot_a = page.insert(b"a")
        page.insert(b"b")
        page.delete(slot_a)
        slot_c = page.insert(b"c")
        assert slot_c == slot_a
        assert page.read(slot_c) == b"c"

    def test_overwrite_shrinking(self):
        page = Page(0)
        slot = page.insert(b"long record here")
        page.overwrite(slot, b"tiny")
        assert page.read(slot) == b"tiny"

    def test_overwrite_growing_with_compaction(self):
        page = Page(0)
        filler = [page.insert(b"x" * 700) for _ in range(10)]
        for s in filler[::2]:
            page.delete(s)
        target = page.insert(b"y" * 100)
        page.overwrite(target, b"z" * 2000)
        assert page.read(target) == b"z" * 2000

    def test_overwrite_too_large_rolls_back(self):
        page = Page(0)
        slot = page.insert(b"keep me")
        page.insert(b"x" * 4000)
        page.insert(b"x" * 3000)
        with pytest.raises(StorageError):
            page.overwrite(slot, b"y" * 5000)
        assert page.read(slot) == b"keep me"

    def test_page_full_raises(self):
        page = Page(0)
        page.insert(b"x" * 4000)
        page.insert(b"x" * 4000)
        with pytest.raises(StorageError):
            page.insert(b"x" * 1000)

    def test_record_size_limit(self):
        page = Page(0)
        with pytest.raises(StorageError):
            page.insert(b"x" * (MAX_RECORD_SIZE + 1))
        slot = page.insert(b"x" * MAX_RECORD_SIZE)
        assert len(page.read(slot)) == MAX_RECORD_SIZE

    def test_empty_record_rejected(self):
        with pytest.raises(StorageError):
            Page(0).insert(b"")

    def test_restore_creates_slots(self):
        page = Page(0)
        page.restore(3, b"redo record")
        assert page.read(3) == b"redo record"
        assert not page.is_live(0)
        assert page.slot_count == 4

    def test_restore_is_idempotent(self):
        page = Page(0)
        page.restore(1, b"same")
        page.restore(1, b"same")
        assert page.read(1) == b"same"

    def test_clear_is_idempotent(self):
        page = Page(0)
        slot = page.insert(b"x")
        page.redo({slot: None}, -1)
        page.redo({slot: None}, -1)
        assert not page.is_live(slot)
        assert page.slot_count == 1

    def test_records_iterates_live_only(self):
        page = Page(0)
        a = page.insert(b"a")
        b = page.insert(b"b")
        page.delete(a)
        assert list(page.records()) == [(b, b"b")]

    def test_compaction_preserves_contents(self):
        page = Page(0)
        slots = [page.insert(f"record-{i}".encode() * 10) for i in range(20)]
        for s in slots[::3]:
            page.delete(s)
        survivors = {s: page.read(s) for s in slots if page.is_live(s)}
        page._compact()
        for slot, record in survivors.items():
            assert page.read(slot) == record

    def test_buffer_round_trip(self):
        page = Page(5)
        page.insert(b"persisted")
        clone = Page(5, bytearray(page.buf))
        assert clone.read(0) == b"persisted"
        assert clone.page_id == 5

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            Page(0, bytearray(PAGE_SIZE))


class TestHeapFile:
    def test_insert_read_round_trip(self):
        heap = HeapFile("t")
        rid = heap.insert(b"record one")
        assert heap.read(rid) == b"record one"
        assert heap.exists(rid)

    def test_spills_to_new_pages(self):
        heap = HeapFile("t")
        rids = [heap.insert(b"x" * 4000) for _ in range(10)]
        assert heap.page_count >= 5
        assert len({page_id for page_id, _ in rids}) >= 5

    def test_delete(self):
        heap = HeapFile("t")
        rid = heap.insert(b"gone")
        heap.delete(rid)
        assert not heap.exists(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_space_reuse_after_delete(self):
        heap = HeapFile("t")
        rids = [heap.insert(b"x" * 4000) for _ in range(4)]
        pages_before = heap.page_count
        for rid in rids:
            heap.delete(rid)
        for _ in range(4):
            heap.insert(b"y" * 4000)
        assert heap.page_count == pages_before

    def test_updates_on_full_pages_probe_o1_pages(self, monkeypatch):
        """An update — delete, then insert a record of the same size — on a
        heap of full pages probes a bounded number of pages wherever the row
        sits: a full page leaves the candidates when it cannot take the
        record being placed, not when some fixed number of bytes is left."""
        heap = HeapFile("t")
        record = b"r" * 263  # 30 to a page, 172 bytes left over
        rids = [heap.insert(record) for _ in range(3000)]
        pages = heap.page_count
        assert pages == 100
        can_fit, probes = Page.can_fit, []

        def counting(page, record_len):
            probes.append(page.page_id)
            return can_fit(page, record_len)

        monkeypatch.setattr(Page, "can_fit", counting)
        rng = random.Random(7)
        per_insert = []
        for _ in range(500):
            i = rng.randrange(len(rids))
            heap.delete(rids[i])
            probes.clear()
            rids[i] = heap.insert(record)
            per_insert.append(len(probes))
        assert max(per_insert) <= 3
        assert sum(per_insert) <= 2 * len(per_insert)
        assert heap.page_count == pages

    def test_scan_order_and_contents(self):
        heap = HeapFile("t")
        expected = {}
        for i in range(50):
            record = f"row-{i}".encode()
            expected[heap.insert(record)] = record
        scanned = dict(heap.scan())
        assert scanned == expected

    def test_restore_clear_idempotent(self):
        heap = HeapFile("t")
        rid = (2, 3)
        heap.restore(rid, b"redo")
        heap.restore(rid, b"redo")
        assert heap.read(rid) == b"redo"
        heap.redo({2: (-1, {3: None})})
        heap.redo({2: (-1, {3: None})})
        assert not heap.exists(rid)

    def test_tamper_record_changes_bytes_silently(self):
        heap = HeapFile("t")
        rid = heap.insert(b"honest data")
        heap.tamper_record(rid, b"evil data!!")
        assert heap.read(rid) == b"evil data!!"

    def test_flush_load_round_trip(self, tmp_path):
        heap = HeapFile("t")
        rids = {heap.insert(f"row-{i}".encode() * 50): i for i in range(200)}
        path = os.path.join(tmp_path, "t.tbl")
        heap.flush(path)
        loaded = HeapFile.load("t", path)
        assert dict(loaded.scan()) == dict(heap.scan())
        for rid in rids:
            assert loaded.read(rid) == heap.read(rid)

    def test_load_rejects_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "bad.tbl")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 100)
        with pytest.raises(StorageError):
            HeapFile.load("t", path)

    def test_load_rejects_truncated_file(self, tmp_path):
        heap = HeapFile("t")
        heap.insert(b"x")
        path = os.path.join(tmp_path, "t.tbl")
        heap.flush(path)
        # Cut the (compressed) image mid-payload.
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(StorageError):
            HeapFile.load("t", path)

    def test_load_rejects_truncated_uncompressed_file(self, tmp_path):
        # A legacy (SLHF) image announcing one raw page but holding half.
        path = os.path.join(tmp_path, "t.tbl")
        with open(path, "wb") as f:
            f.write(struct.pack(">4sI", b"SLHF", 1) + bytes(PAGE_SIZE // 2))
        with pytest.raises(StorageError):
            HeapFile.load("t", path)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), st.binary(min_size=1, max_size=300)),
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_dict_model(self, operations):
        """The heap behaves like a dict under random inserts and deletes."""
        heap = HeapFile("t")
        model = {}
        live = []
        for op, payload in operations:
            if op == "insert" or not live:
                rid = heap.insert(payload)
                model[rid] = payload
                live.append(rid)
            else:
                rid = live.pop(len(live) // 2)
                heap.delete(rid)
                del model[rid]
        assert dict(heap.scan()) == model

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "overwrite"]),
                st.binary(min_size=1, max_size=900),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_pages_yield_what_scan_does(self, operations):
        """Page by page, the page reader yields the records :meth:`scan`
        yields, in the same order, beside a copy of each page's image."""
        heap = HeapFile("t")
        live = []
        for op, payload in operations:
            if op == "insert" or not live:
                live.append(heap.insert(payload))
            elif op == "delete":
                heap.delete(live.pop(len(live) // 2))
            else:
                heap.overwrite(live[len(live) // 2], payload)
        pages = list(heap.pages())
        assert [image for image, _ in pages] == [
            bytes(page.buf) for page in heap._pages
        ]
        assert all(len(image) == PAGE_SIZE for image, _ in pages)
        assert [r for _, records in pages for r in records] == [
            record for _, record in heap.scan()
        ]

    def test_page_images_are_the_stored_bytes_and_copies(self, tmp_path):
        heap = HeapFile("t")
        rids = [heap.insert(bytes([i % 251]) * 700) for i in range(30)]
        heap.delete(rids[3])
        path = str(tmp_path / "t.heap")
        heap.flush(path)
        images = [image for image, _ in heap.pages()]
        assert len(images) == heap.page_count > 1
        assert [image for image, _ in HeapFile.load("t", path).pages()] == images
        heap.tamper_record(rids[0], b"x" * 700)
        assert images[0] != next(heap.pages())[0]


# -- the page reader: one unpack of the slot directory ------------------------

def reference_records(page):
    """The per-slot reader ``Page.records`` was: one ``_read_slot`` per slot."""
    out = []
    for slot in range(page.slot_count):
        offset, length = page._read_slot(slot)
        if (offset, length) != (0, 0):
            out.append((slot, bytes(page.buf[offset : offset + length])))
    return out


def reference_accounting(page):
    """Dead slots and live bytes, read slot by slot as a reload used to."""
    entries = [page._read_slot(slot) for slot in range(page.slot_count)]
    return (
        [slot for slot, entry in enumerate(entries) if entry == (0, 0)],
        sum(length for _, length in entries),  # a dead slot's is 0
    )


page_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "overwrite", "compact", "redo"]),
        st.integers(0, 60),
        st.one_of(
            st.binary(min_size=1, max_size=200),
            st.builds(lambda n, b: bytes([b]) * n,
                      st.sampled_from([900, 2500]), st.integers(0, 255)),
        ),
    ),
    max_size=60,
)


class TestPageReader:
    """``Page.records`` and a reload's slot accounting, both from one unpack
    of the slot directory, equal the per-slot reads they replaced."""

    @staticmethod
    def _check(page):
        assert list(page.records()) == reference_records(page)
        reloaded = Page(page.page_id, bytearray(page.buf))
        assert (reloaded._dead_slots, reloaded._live_bytes) == (
            reference_accounting(page)
        )
        assert sorted(page._dead_slots) == reloaded._dead_slots
        assert page._live_bytes == reloaded._live_bytes

    @given(page_operations)
    @settings(max_examples=80, deadline=None)
    def test_records_equal_the_per_slot_reader(self, operations):
        page = Page(3)
        for op, pick, record in operations:
            live = [slot for slot, _ in reference_records(page)]
            try:
                if op == "insert" or (op in ("delete", "overwrite") and not live):
                    page.insert(record)
                elif op == "delete":
                    page.delete(live[pick % len(live)])
                elif op == "overwrite":
                    page.overwrite(live[pick % len(live)], record)
                elif op == "compact":
                    page._compact()
                else:
                    # Clear one slot, restore another, maybe past the end.
                    writes = {pick % 8: None, pick: record}
                    page.redo(writes, pick)
            except StorageError:
                pass  # did not fit: the page is unchanged
            self._check(page)

    @given(
        st.integers(0, MAX_SLOTS) | st.integers(0, 12),
        st.integers(0, 2**32),
        st.lists(st.tuples(
            st.integers(0, 12),
            st.sampled_from([(0, 0), (0, 7), (40, 0), (PAGE_SIZE - 2, 9)]),
        )),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_directory_reads_as_slot_by_slot(self, slot_count, seed, entries):
        """Whatever a slot directory holds — noise, entries past the page
        end, a zero length at a non-zero offset or the reverse — is read as
        ``_read_slot`` reads it."""
        buf = bytearray(random.Random(seed).randbytes(PAGE_SIZE))
        struct.pack_into(">HIHH", buf, 0, 0x5D1A, 3, slot_count, HEADER_SIZE)
        for slot, entry in entries:
            if slot < slot_count:
                struct.pack_into(">HH", buf, PAGE_SIZE - (slot + 1) * SLOT_SIZE, *entry)
        self._check(Page(3, buf))

    def test_a_directory_past_the_header_is_refused(self):
        buf = bytearray(PAGE_SIZE)
        struct.pack_into(">HIHH", buf, 0, 0x5D1A, 0, MAX_SLOTS + 1, HEADER_SIZE)
        with pytest.raises(StorageError, match="more than the 2045 that fit"):
            Page(0, buf)

    def test_records_read_the_page_as_it_stood_at_the_first(self):
        page = Page(0)
        slots = [page.insert(bytes([n + 1]) * 100) for n in range(5)]
        records = page.records()
        assert next(records) == (0, bytes([1]) * 100)
        page.delete(slots[2])
        page.overwrite(slots[3], b"z" * 300)
        assert list(records) == [(s, bytes([s + 1]) * 100) for s in slots[1:]]


# -- crash-recovery redo: one layout per page ---------------------------------

record_bytes = st.one_of(
    st.binary(min_size=1, max_size=40),
    # Large records fill a page in a few writes (near-full pages).
    st.builds(
        lambda n, b: bytes([b]) * n,
        st.sampled_from([300, 1500, 2700, 4000]),
        st.integers(0, 255),
    ),
)


def _loaded(heap):
    """``heap`` as a checkpoint leaves it: flushed to an image and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tbl")
        heap.flush(path)
        return HeapFile.load(heap.name, path)


@st.composite
def image_and_log(draw):
    """A heap image with dead slots and holes in its record areas, and a
    log of ``(restore?, page, slot, record)`` redo writes against it that
    repeats slots, clears slots and pages that do not exist (yet), and
    restores past the slot count and the page count."""
    heap = HeapFile("t")
    rids = [heap.insert(r) for r in draw(st.lists(record_bytes, min_size=1, max_size=20))]
    dead = draw(st.lists(st.sampled_from(rids), max_size=8, unique=True))
    for rid in dead:
        heap.delete(rid)
    for rid in draw(st.lists(st.sampled_from(rids), max_size=8, unique=True)):
        if rid not in dead:
            record = heap.read(rid)
            heap.overwrite(rid, record[: max(1, len(record) // 2)])  # a hole
    image = _loaded(heap)
    target = st.tuples(
        st.just(0) | st.integers(0, image.page_count + 2),
        st.integers(0, 4) | st.integers(0, 24),
    )
    # A few targets the log writes repeatedly, and fresh ones.
    targets = draw(st.lists(target, min_size=1, max_size=8))
    write = st.tuples(st.booleans(), st.sampled_from(targets) | target, record_bytes)
    log = draw(st.lists(write, min_size=1, max_size=40))
    return image, [(restore, *target, record) for restore, target, record in log]


def _sequential(heap, log):
    """The reference: replay one write at a time (restore, or delete if live)."""
    for restore, page_id, slot, record in log:
        rid = (page_id, slot)
        if restore:
            heap.restore(rid, record)
        elif heap.exists(rid):
            heap.delete(rid)


def _folded(heap, log):
    """Fold the log as recovery does — last write per slot, highest slot
    restored per page — and apply it with one ``HeapFile.redo``."""
    pages = {}
    for restore, page_id, slot, record in log:
        change = pages.setdefault(page_id, [-1, {}])
        change[1][slot] = record if restore else None
        if restore:
            change[0] = max(change[0], slot)
    heap.redo(pages)


def _state(heap):
    """RowId → bytes (its keys are the live set), slot counts, page count."""
    return (
        dict(heap.scan()),
        [page.slot_count for page in heap._pages],
        heap.page_count,
    )


def _cached_fields(heap):
    return [
        (page.slot_count, page.free_offset, page.live_count,
         page.free_space_after_compaction(), sorted(page._dead_slots))
        for page in heap._pages
    ]


class TestFoldedRedo:
    """Redo folds per page: laying out each page once from the folded log
    equals replaying the log record by record."""

    @given(image_and_log())
    @settings(max_examples=80, deadline=None)
    def test_folded_redo_equals_sequential_replay(self, case):
        image, log = case
        reference = _loaded(image)
        try:
            _sequential(reference, log)
            expected = _state(reference)
        except StorageError:
            expected = None  # an intermediate or the final state overflowed
        heap = _loaded(image)
        try:
            _folded(heap, log)
        except StorageError:
            # Only a final page state that does not fit may refuse, and
            # sequential replay reaches that state or fails before it.
            assert expected is None
            return
        if expected is not None:
            assert _state(heap) == expected
        # Every cached field agrees with what the page bytes say.
        assert _cached_fields(heap) == _cached_fields(_loaded(heap))

    def test_final_contents_that_do_not_fit_raise(self):
        page = Page(0)
        page.insert(b"x" * 4000)
        page.insert(b"x" * 4000)
        before = bytes(page.buf)
        with pytest.raises(StorageError):
            page.redo({2: b"y" * 200}, 2)
        assert bytes(page.buf) == before
        # Shrink slot 1 in the same fold and the final contents fit.
        page.redo({1: b"y" * 200, 2: b"y" * 200}, 2)
        assert [len(r) for _, r in page.records()] == [4000, 200, 200]

    def test_redo_zeroes_the_free_area(self):
        page = Page(0)
        slots = [page.insert(bytes([i + 1]) * 500) for i in range(8)]
        page.redo({slots[0]: None, slots[3]: None}, -1)
        assert page.free_offset == HEADER_SIZE + 6 * 500
        assert not any(page.buf[page.free_offset : PAGE_SIZE - 8 * SLOT_SIZE])


# -- batch placement: insert_many equals one insert each ----------------------

def _insert_one(heap, record):
    """The reference: one record placed with one ``Page.insert``, as
    ``HeapFile.insert`` did before batches were placed a page at a time."""
    room, size = heap._room, len(record)
    while room and not heap._pages[room[0]].can_fit(size):
        heap._in_room.discard(heapq.heappop(room))
    if not room:
        heap._append_page()
    page_id = room[0]
    page = heap._pages[page_id]
    slot = page.insert(record)
    if not page.can_fit(size):
        heap._in_room.discard(heapq.heappop(room))
    return page_id, slot


#: Record sizes two of which fill a fresh page exactly: 4087 + 4087, or
#: the largest record and 114 bytes.
_ROOM = PAGE_SIZE - HEADER_SIZE - 2 * SLOT_SIZE
placement_record = record_bytes | st.builds(
    lambda n, b: bytes([b]) * n,
    st.sampled_from([_ROOM // 2, MAX_RECORD_SIZE, _ROOM - MAX_RECORD_SIZE]),
    st.integers(0, 255),
)


@st.composite
def placement_history(draw):
    """Batches of 1…N records, with deletes (dead slots) and shrinking
    overwrites (room only a compaction can use) between them."""
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        steps.append(
            ("batch", draw(st.lists(placement_record, min_size=1, max_size=30)))
        )
        for _ in range(draw(st.integers(0, 6))):
            steps.append((
                draw(st.sampled_from(["delete", "shrink"])),
                draw(st.integers(0, 10_000)),
                draw(st.integers(1, 40)),
            ))
    return steps


def _image(heap, tmp):
    path = os.path.join(tmp, heap.name)
    heap.flush(path)
    with open(path, "rb") as f:
        return f.read()


class TestInsertMany:
    """Batch placement: ``insert_many`` places a batch where one ``insert``
    per record would."""

    @given(placement_history())
    @example([("batch", [b"a" * 4087, b"b" * 4087, b"c"])])  # page 0 exactly full
    @example([("batch", [b"a" * 100, b"b" * 4035, b"c" * 4035])])  # room for one more
    @settings(max_examples=80, deadline=None)
    def test_insert_many_equals_one_insert_each(self, history):
        batched, reference = HeapFile("a"), HeapFile("b")
        live = []
        for step in history:
            if step[0] == "batch":
                rids = batched.insert_many(step[1])
                assert rids == [_insert_one(reference, r) for r in step[1]]
                live.extend(rids)
            elif live:
                rid = live[step[1] % len(live)]
                if step[0] == "delete":
                    live.remove(rid)
                    batched.delete(rid)
                    reference.delete(rid)
                else:
                    record = batched.read(rid)[: step[2]]
                    batched.overwrite(rid, record)
                    reference.overwrite(rid, record)
            assert batched._room == reference._room
        with tempfile.TemporaryDirectory() as tmp:
            assert _image(batched, tmp) == _image(reference, tmp)
        assert _cached_fields(batched) == _cached_fields(reference)

    def test_a_page_takes_its_run_in_one_write(self, monkeypatch):
        heap = HeapFile("t")
        heap.insert_many([b"x" * 100] * 5)  # page 0 keeps room
        appends = []
        append = Page.append
        monkeypatch.setattr(
            Page, "append",
            lambda page, records: appends.append(len(records)) or append(page, records),
        )
        rids = heap.insert_many([b"y" * 1000] * 20)
        assert appends == [7, 8, 5]  # page 0 fills, page 1, page 2
        assert [p for p, _ in rids] == [0] * 7 + [1] * 8 + [2] * 5
        # Two records that fill a page exactly are one run; a record on its
        # own goes through Page.insert.
        appends.clear()
        rids = HeapFile("u").insert_many([b"a" * 4087, b"b" * 4087, b"c"])
        assert appends == [2]
        assert rids == [(0, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize(
        "bad", [b"x" * (MAX_RECORD_SIZE + 1983), b""], ids=["over_limit", "empty"]
    )
    def test_a_rejected_record_leaves_no_trace(self, bad):
        fresh = HeapFile("fresh")
        with pytest.raises(StorageError):
            fresh.insert(bad)
        assert fresh.page_count == 0 and fresh._room == []
        heap = HeapFile("t")
        heap.insert(b"a" * 100)
        for _ in range(5):
            with pytest.raises(StorageError):
                heap.insert(bad)
        assert heap.page_count == 1
        assert heap._room == [0]
        assert heap.insert(b"c") == (0, 1)

    def test_a_rejected_batch_places_nothing(self):
        heap = HeapFile("t")
        heap.insert(b"a" * 100)
        image = bytes(heap._pages[0].buf)
        with pytest.raises(StorageError):
            heap.insert_many([b"b" * 10, b"x" * (MAX_RECORD_SIZE + 1)])
        assert bytes(heap._pages[0].buf) == image
        assert heap.page_count == 1 and heap._room == [0]
        assert heap.insert_many([b"c", b"d"]) == [(0, 1), (0, 2)]
