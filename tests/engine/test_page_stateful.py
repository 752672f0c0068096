"""Stateful property test: slotted pages against a dict model.

Random interleavings of insert / delete / overwrite (shrinking, same size,
growing into the free area or past it) / restore / folded redo /
compaction must agree with a dictionary model, and the page must survive a round trip
through its byte buffer at any point (the persistence/tamper surface).  The
cached slot accounting — live bytes and live record count — must always
agree with what the slot directory holds.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.pager import (
    HEADER_SIZE,
    MAX_RECORD_SIZE,
    PAGE_SIZE,
    SLOT_SIZE,
    Page,
)
from repro.errors import StorageError

record_data = st.binary(min_size=1, max_size=600)


class PageMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.page = Page(0)
        self.model = {}

    # -- operations -----------------------------------------------------------

    @rule(record=record_data)
    def insert(self, record):
        try:
            slot = self.page.insert(record)
        except StorageError:
            # Only legal when the record genuinely cannot fit.
            assert not self.page.can_fit(len(record))
            return
        assert slot not in self.model
        self.model[slot] = record

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        slot = data.draw(st.sampled_from(sorted(self.model)))
        self.page.delete(slot)
        del self.model[slot]

    @precondition(lambda self: self.model)
    @rule(
        kind=st.sampled_from(["shrink", "same", "grow", "grow_past_free_area"]),
        data=st.data(),
    )
    def overwrite(self, kind, data):
        """A record that shrinks or keeps its size stays where it lies; one
        that grows goes to the free area, and the page is compacted only
        when that area is too small."""
        slot = data.draw(st.sampled_from(sorted(self.model)))
        old_len, free = len(self.model[slot]), self.page.free_space()
        if kind == "shrink":
            size = data.draw(st.integers(1, max(1, old_len - 1)))
        elif kind == "same":
            size = old_len
        elif kind == "grow":  # into the free area (same size if it is too small)
            size = data.draw(st.integers(old_len + 1, free)) if free > old_len else old_len
        else:
            size = data.draw(st.integers(
                max(old_len, free) + 1,
                old_len + self.page.free_space_after_compaction() + 50,
            ))
        size = min(size, MAX_RECORD_SIZE)
        record = data.draw(st.binary(min_size=size, max_size=size))
        offset = self.page._read_slot(slot)[0]
        others = {s: self.page._read_slot(s) for s in self.model if s != slot}
        fits = self.page.can_replace(slot, size)
        compactions = []
        original = Page._compact

        def counted(page):
            compactions.append(page)
            original(page)

        Page._compact = counted
        try:
            self.page.overwrite(slot, record)
        except StorageError:
            # Growth that cannot fit even after compaction; old value intact.
            assert not fits and kind == "grow_past_free_area"
            assert self.page.read(slot) == self.model[slot]
            return
        finally:
            Page._compact = original
        assert fits
        self.model[slot] = record
        if size <= old_len:
            assert not compactions
            assert self.page._read_slot(slot) == (offset, size)
        elif size <= free:
            assert not compactions
            assert {s: self.page._read_slot(s) for s in others} == others
        else:
            assert len(compactions) == 1
            assert self.page.free_space() == self.page.free_space_after_compaction()

    @rule(slot=st.integers(min_value=0, max_value=40), record=record_data)
    def restore(self, slot, record):
        try:
            self.page.restore(slot, record)
        except StorageError:
            return
        self.model[slot] = record

    @rule(
        writes=st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.none() | record_data,
            max_size=6,
        ),
        data=st.data(),
    )
    def redo(self, writes, data):
        # ``top`` covers every restored slot and maybe a cleared one
        # (restored earlier in the folded log, then cleared).
        top = max(
            (s for s, r in writes.items() if r is not None or data.draw(st.booleans())),
            default=-1,
        )
        slot_count = max(self.page.slot_count, top + 1)
        before = bytes(self.page.buf)
        try:
            self.page.redo(writes, top)
        except StorageError:
            assert bytes(self.page.buf) == before  # refused whole
            return
        for slot, record in writes.items():
            if record is None:
                self.model.pop(slot, None)
            else:
                self.model[slot] = record
        assert self.page.slot_count == slot_count

    @rule()
    def compact(self):
        self.page._compact()

    @rule()
    def round_trip_through_bytes(self):
        """Reload the page from its buffer — what persistence does."""
        self.page = Page(0, bytearray(self.page.buf))

    # -- invariants -------------------------------------------------------------

    @invariant()
    def contents_match_model(self):
        live = dict(self.page.records())
        assert live == self.model

    @invariant()
    def space_accounting_is_sane(self):
        live_bytes = sum(len(r) for r in self.model.values())
        expected_free = (
            PAGE_SIZE - HEADER_SIZE - self.page.slot_count * SLOT_SIZE
            - live_bytes
        )
        assert self.page.free_space_after_compaction() == expected_free
        assert 0 <= self.page.free_space() <= expected_free

    @invariant()
    def cached_live_count_matches_records(self):
        # HeapFile.record_count sums this instead of scanning.
        assert self.page.live_count == len(list(self.page.records()))


PageMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestPageStateful = PageMachine.TestCase


@pytest.mark.parametrize("holes", [0, 3])
def test_can_replace_is_exact_at_the_boundary(holes):
    """A record exactly as large as the slot's bytes plus the page's free
    space after compaction fits; one byte more does not, and is refused
    with the page unchanged."""
    page = Page(0)
    slots = [page.insert(bytes([n]) * 100) for n in range(70)]
    for slot in slots[10:10 + holes]:
        page.delete(slot)
    target = slots[40]
    largest = 100 + page.free_space_after_compaction()
    assert page.can_replace(target, largest)
    assert not page.can_replace(target, largest + 1)
    before = bytes(page.buf)
    with pytest.raises(StorageError):
        page.overwrite(target, b"y" * (largest + 1))
    assert bytes(page.buf) == before
    page.overwrite(target, b"x" * largest)
    assert page.read(target) == b"x" * largest
    assert page.free_space_after_compaction() == 0
