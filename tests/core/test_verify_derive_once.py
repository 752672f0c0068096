"""Each stored record is derived once per run, and nothing else changes.

The table-root pass hands every base record's full-row leaf to the index
check, which derives only the index copies and compares sorted leaf lists.
The code it replaced is kept here as the reference: a record pass that also
built a clustered sort key, cached ``(events, key)`` per record, derived
every base record a second time for the index check, and compared roots
over leaves sorted by ``(key, leaf)``.  On every attack of
:mod:`repro.attacks` and on damage aimed at indexes and keys, the verifier
and the reference must report the same findings in the same order and the
same counters, cold and warm.
"""

from typing import Any, Dict, List, Optional, Tuple

import pytest

import repro.attacks
from repro.attacks import (
    delete_history_row,
    drop_and_recreate_table,
    fork_block,
    rewrite_chain,
    rewrite_row_value,
    tamper_column_type,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.core.verification import (
    SEVERITY_ERROR,
    Finding,
    LedgerVerifier,
    leaf_cache,
)
from repro.crypto.hashing import LeafHashCache, hash_leaf
from repro.crypto.merkle import MerkleHasher
from repro.engine.expressions import eq
from repro.engine.record import hashable_payload, key_tuple
from repro.engine.schema import IndexDefinition
from repro.engine.types import SMALLINT
from repro.errors import StorageError
from repro.sql import SqlSession

from tests.core.conftest import accounts_schema, run


# ----------------------------------------------------------------------
# The reference: record pass, index check and root as they were before
# ----------------------------------------------------------------------


def ref_relation(snapshot, table_index, which):
    table = snapshot.tables[table_index]
    return table.base if which == "base" else table.history


def ref_record_events(relation, record):
    start_tid, start_seq = relation.start_ordinals
    payload, created, row = hashable_payload(
        relation.schema, record, relation.end_ordinals
    )
    if relation.is_history:
        end_tid, end_seq = relation.end_ordinals
        events = (
            (
                row[start_tid],
                row[start_seq] if row[start_seq] is not None else -1,
                hash_leaf(created),
            ),
            (
                row[end_tid],
                row[end_seq] if row[end_seq] is not None else -1,
                hash_leaf(payload),
            ),
        )
    else:
        events = (
            (
                row[start_tid],
                row[start_seq] if row[start_seq] is not None else -1,
                hash_leaf(payload),
            ),
        )
    key_ordinals = relation.schema.primary_key_ordinals()
    return events, key_tuple([row[o] for o in key_ordinals])


def ref_cached_record_events(relation, record, cache):
    if cache is None:
        return ref_record_events(relation, record)
    value = cache.get(relation.fingerprint, record)
    if value is not None:
        return value
    value = ref_record_events(relation, record)
    cache.put(relation.fingerprint, record, value)
    return value


def ref_merkle_root(leaves):
    hasher = MerkleHasher()
    for leaf in leaves:
        hasher.append(leaf)
    return hasher.root()


def ref_events_task(snapshot, cache, table_index, which):
    relation = ref_relation(snapshot, table_index, which)
    events: Dict[Optional[int], List[Tuple[int, bytes]]] = {}
    findings: List[Finding] = []
    scanned = 0
    kind = "history table" if relation.is_history else "table"
    for page_id, slot, record in relation.records:
        try:
            derived, _ = ref_cached_record_events(relation, record, cache)
        except StorageError as exc:
            findings.append(
                Finding(
                    "table_root", SEVERITY_ERROR,
                    f"row RowId({page_id}:{slot}) in {kind} "
                    f"{relation.name!r} failed to decode: {exc}",
                    {"table": relation.name},
                )
            )
            continue
        for tid, seq, leaf in derived:
            events.setdefault(tid, []).append((seq, leaf))
        scanned += len(derived)
    return {"events": events, "findings": findings, "count": scanned}


def ref_keyed_leaves_task(snapshot, cache, table_index, which, source):
    relation = ref_relation(snapshot, table_index, which)
    if source is None:
        records = [record for _, _, record in relation.records]
    else:
        records = relation.index_records[source]
    keyed: List[Tuple[Tuple, bytes]] = []
    findings: List[Finding] = []
    for record in records:
        try:
            derived, order_key = ref_cached_record_events(
                relation, record, cache
            )
        except StorageError as exc:
            findings.append(
                Finding(
                    "index", SEVERITY_ERROR,
                    f"record in {relation.name!r} failed to decode "
                    f"during index verification: {exc}",
                    {"table": relation.name},
                )
            )
            continue
        keyed.append((order_key, derived[-1][2]))
    return {"keyed": keyed, "findings": findings, "count": len(records)}


class ReferenceVerifier(LedgerVerifier):
    """The verifier with the record pass and index check it had before."""

    def _run_task(self, report, snapshot, task, *args):
        """Run one reference task; its findings join the report in order."""
        result = task(snapshot, self._cache, *args)
        report.findings.extend(result["findings"])
        return result

    def _collect_events(self, report, snapshot):
        merged: Dict[int, Dict[Optional[int], List[Tuple[int, bytes]]]] = {}
        for table_index, which, _ in self._relations(snapshot):
            result = self._run_task(
                report, snapshot, ref_events_task, table_index, which
            )
            events = merged.setdefault(table_index, result["events"])
            if events is not result["events"]:
                for tid, pairs in result["events"].items():
                    events.setdefault(tid, []).extend(pairs)
        for events in merged.values():
            for tid in snapshot.active_tids:
                events.pop(tid, None)
        return merged

    def _check_indexes(self, report, snapshot):
        indexed = [
            item for item in self._relations(snapshot)
            if item[2].index_records
        ]
        merged: Dict[Tuple[int, str, Optional[str]], List] = {}
        for table_index, which, relation in indexed:
            for source in (None, *relation.index_records):
                merged[table_index, which, source] = self._run_task(
                    report, snapshot, ref_keyed_leaves_task,
                    table_index, which, source,
                )["keyed"]

        def root_of(table_index, which, source):
            keyed = sorted(merged.get((table_index, which, source), []))
            return ref_merkle_root([leaf for _, leaf in keyed])

        for table_index, which, relation in indexed:
            base_root = root_of(table_index, which, None)
            for index_name in relation.index_records:
                if root_of(table_index, which, index_name) != base_root:
                    report.findings.append(
                        Finding(
                            "index", SEVERITY_ERROR,
                            f"nonclustered index {index_name!r} on "
                            f"{relation.name!r} is not equivalent to the "
                            "base table",
                            {"table": relation.name, "index": index_name},
                        )
                    )


# ----------------------------------------------------------------------
# The database every case starts from, and the cases
# ----------------------------------------------------------------------


INDEXED = (
    accounts_schema("indexed")
    .with_index(IndexDefinition("ix_balance", ("balance",)))
    .with_index(IndexDefinition("ix_balance_name", ("balance", "name")))
)


def build(db) -> Dict[str, Any]:
    """Two keyed tables with history, one with two indexes, and a keyless
    indexed table; several blocks (block_size=4)."""
    accounts = db.create_ledger_table(accounts_schema())
    indexed = db.create_ledger_table(INDEXED)
    session = SqlSession(db)
    session.execute("CREATE TABLE keyless (a INT, b INT) WITH (LEDGER = ON)")
    session.execute("CREATE INDEX ix_b ON keyless (b)")
    for i in range(8):
        run(db, "alice", lambda t, i=i: (
            db.insert(t, "accounts", [[f"u{i}", i * 10]]),
            db.insert(t, "indexed", [[f"key{i}", i % 3]]),
        ))
    session.execute(
        "INSERT INTO keyless (a, b) VALUES (1, 10), (2, 20), (2, 20), (3, 5)"
    )
    run(db, "bob", lambda t: db.update(
        t, "accounts", {"balance": 1}, eq("name", "u0")))
    run(db, "bob", lambda t: db.update(
        t, "indexed", {"balance": 9}, eq("name", "key1")))
    session.execute("UPDATE keyless SET a = 7 WHERE b = 5")
    return {
        "accounts": accounts,
        "indexed": indexed,
        "keyless": db.ledger_table("keyless"),
        "digests": [db.generate_digest()],
    }


def first_rid(heap, nth=0):
    return [rid for rid, _ in heap.scan()][nth]


def copy_heap(state, table, index):
    return state[table].nonclustered[index].heap


def undecodable_base(db, state):
    heap = state["indexed"].heap
    heap.tamper_record(first_rid(heap, 2), b"\x00\x04junk")


def undecodable_copy(db, state):
    heap = copy_heap(state, "indexed", "ix_balance")
    heap.tamper_record(first_rid(heap, 1), b"\x00\x04junk")


def undecodable_everywhere(db, state):
    """Base and both indexes each hold a record that does not decode, each
    for a different reason."""
    key_bytes_base(db, state)
    undecodable_copy(db, state)
    heap = copy_heap(state, "indexed", "ix_balance_name")
    rid = first_rid(heap, 4)
    heap.tamper_record(rid, heap.read(rid)[:-3])
    state["accounts"].heap.tamper_record(
        first_rid(state["accounts"].heap, 3), b"\x00\x04junk"
    )


def dropped_copy(db, state):
    heap = copy_heap(state, "indexed", "ix_balance")
    heap.tamper_delete(first_rid(heap, 3))


def duplicated_copy(db, state):
    heap = copy_heap(state, "indexed", "ix_balance_name")
    heap.insert(heap.read(first_rid(heap, 2)))


def damaged_key_bytes(record: bytes, name: bytes) -> bytes:
    assert name in record
    return record.replace(name, b"\xff" * len(name), 1)


def key_bytes_base(db, state):
    """The clustered key's value bytes no longer decode (invalid UTF-8)."""
    heap = state["indexed"].heap
    rid = first_rid(heap, 5)
    heap.tamper_record(rid, damaged_key_bytes(heap.read(rid), b"key5"))


def key_bytes_copy(db, state):
    heap = copy_heap(state, "indexed", "ix_balance")
    for rid, record in list(heap.scan()):
        if b"key6" in record:
            heap.tamper_record(rid, damaged_key_bytes(record, b"key6"))


def key_bytes_history(db, state):
    """A history relation has no clustered key: the same bytes are a value
    there, and change a leaf instead."""
    history = db.history_table("accounts").heap
    rid = first_rid(history)
    history.tamper_record(rid, damaged_key_bytes(history.read(rid), b"u0"))


def key_value_changed(db, state):
    """The key decodes, to another key, in the base only."""
    rewrite_row_value(
        state["indexed"], lambda r: r["name"] == "key4", "name", "key44"
    )


def keyless_copy(db, state):
    heap = state["keyless"].nonclustered["ix_b"].heap
    heap.tamper_delete(first_rid(heap, 1))
    heap.insert(heap.read(first_rid(heap, 0)))


def keyless_base(db, state):
    rewrite_row_value(state["keyless"], lambda r: r["a"] == 2, "b", 21)


def attack_rewrite_chain(db, state):
    db.pipeline.drain(seal_open=True)
    rewrite_chain(db)


def attack_drop_and_recreate(db, state):
    drop_and_recreate_table(db, "indexed", INDEXED, [["evil", 1]])


def attack_transaction_entry(db, state):
    db.ledger.flush_queue()
    tid = db.ledger.all_entries()[-1].transaction_id
    tamper_transaction_entry(db, tid, "innocent_user")


#: name -> (the repro.attacks function it exercises or None, mutation).
CASES = {
    "rewrite_row_value": (rewrite_row_value, lambda db, s: rewrite_row_value(
        s["indexed"], lambda r: r["name"] == "key3", "balance", 999)),
    "delete_history_row": (delete_history_row, lambda db, s: (
        delete_history_row(
            s["accounts"], db.history_table("accounts"),
            lambda r: r["name"] == "u0",
        ))),
    "tamper_column_type": (tamper_column_type, lambda db, s: (
        tamper_column_type(db, "indexed", "balance", SMALLINT))),
    "tamper_key_column_type": (tamper_column_type, lambda db, s: (
        tamper_column_type(db, "indexed", "name", SMALLINT))),
    "tamper_nonclustered_index": (tamper_nonclustered_index, lambda db, s: (
        tamper_nonclustered_index(
            s["indexed"], "ix_balance", lambda r: r["name"] == "key2",
            "balance", 77,
        ))),
    "tamper_transaction_entry": (
        tamper_transaction_entry, attack_transaction_entry),
    "fork_block": (fork_block, lambda db, s: (
        fork_block(db, db.ledger.blocks()[0].block_id))),
    "rewrite_chain": (rewrite_chain, attack_rewrite_chain),
    "drop_and_recreate_table": (
        drop_and_recreate_table, attack_drop_and_recreate),
    "tamper_view_definition": (tamper_view_definition, lambda db, s: (
        tamper_view_definition(
            db, "indexed_ledger",
            "CREATE VIEW indexed_ledger AS SELECT * FROM indexed WHERE 1=0",
        ))),
    "tampered_copy_in_second_index": (None, lambda db, s: (
        tamper_nonclustered_index(
            s["indexed"], "ix_balance_name", lambda r: r["name"] == "key5",
            "balance", 5,
        ))),
    "dropped_copy": (None, dropped_copy),
    "duplicated_copy": (None, duplicated_copy),
    "undecodable_base": (None, undecodable_base),
    "undecodable_copy": (None, undecodable_copy),
    "undecodable_everywhere": (None, undecodable_everywhere),
    "keyless_copy": (None, keyless_copy),
    "keyless_base": (None, keyless_base),
    "key_bytes_base": (None, key_bytes_base),
    "key_bytes_copy": (None, key_bytes_copy),
    "key_bytes_history": (None, key_bytes_history),
    "key_value_changed": (None, key_value_changed),
    "clean": (None, lambda db, s: None),
}

#: Cases whose key damage must surface as a decode failure.
DECODE_FAILURES = (
    "tamper_key_column_type", "key_bytes_base", "key_bytes_copy",
)

COUNTERS = (
    "ok", "mode", "blocks_verified", "transactions_verified",
    "tables_verified", "row_versions_hashed", "uncovered_transactions",
)


def outcome(report):
    return (
        [
            (f.invariant, f.severity, f.message, f.context)
            for f in report.findings
        ],
        {counter: getattr(report, counter) for counter in COUNTERS},
    )


def test_every_attack_has_a_case():
    covered = {attack.__name__ for attack, _ in CASES.values() if attack}
    assert covered == set(repro.attacks.__all__)


@pytest.mark.parametrize("case", list(CASES))
def test_findings_and_counters_equal_the_reference(db, case):
    state = build(db)
    digests = state["digests"]
    LedgerVerifier(db).verify(digests)  # the cache holds honest records
    CASES[case][1](db, state)
    for warm in (False, True):
        if warm:
            LedgerVerifier(db).verify(digests)
        else:
            leaf_cache().clear()
        report = LedgerVerifier(db).verify(digests)
        reference = ReferenceVerifier(db, cache=LeafHashCache()).verify(
            digests
        )
        assert outcome(report) == outcome(reference), f"{case}, warm={warm}"
        assert report.ok == (case in ("clean", "drop_and_recreate_table"))
    if case.startswith("undecodable") or case in DECODE_FAILURES:
        assert [f for f in report.findings if "failed to decode" in f.message]


def test_index_findings_follow_relation_then_source_order(db):
    """Base decode failures of a relation come before its copies', first
    index before second; the equality comparisons come last."""
    state = build(db)
    undecodable_everywhere(db, state)
    report = db.verify(state["digests"])
    index = [
        f.message for f in report.findings if f.invariant == "index"
    ]
    assert len(index) == 5
    assert "invalid UTF-8" in index[0]  # the base record
    assert "truncated record at column 'balance'" in index[1]  # ix_balance
    assert "truncated value" in index[2]  # ix_balance_name
    assert "'ix_balance'" in index[3] and "'ix_balance_name'" in index[4]
