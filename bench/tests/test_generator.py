"""Same seed => identical inputs; different seed => different inputs."""

import itertools

from bench.workloads import audit_embedded, ingest_embedded, oltp_service, read_mixed


def test_ingest_batches_are_a_function_of_the_seed():
    a = ingest_embedded.make_batches(seed=3, txns=8)
    assert a == ingest_embedded.make_batches(seed=3, txns=8)
    assert a != ingest_embedded.make_batches(seed=4, txns=8)
    ids = [row[0] for batch in a for row in batch]
    assert ids == list(range(len(ids)))  # consecutive primary keys
    timed = a[ingest_embedded.WARMUP_TXNS:]
    assert [len(batch) for batch in timed] == [100, 100, 100, 100, 1] * 2


def test_oltp_inputs_and_expected_state_repeat_for_a_seed():
    a, b = oltp_service.Inputs(5, 0.2), oltp_service.Inputs(5, 0.2)
    assert a.fingerprint() == b.fingerprint()
    assert (a.accounts, a.transfers, a.user_bytes) == (b.accounts, b.transfers, b.user_bytes)
    assert a.fingerprint() != oltp_service.Inputs(6, 0.2).fingerprint()


def test_oltp_never_touches_a_deleted_account_and_never_reuses_an_id():
    inputs = oltp_service.Inputs(9, 1.0)
    deleted, inserted = set(), set()
    for kind, payload in inputs.ops + [("insert", [row]) for row in inputs.paced]:
        if kind == "insert":
            ids = {row[0] for row in payload}
            assert not ids & inserted
            inserted |= ids
        else:
            key = int(payload.rsplit("=", 1)[1])
            assert key not in deleted
            if payload.startswith("DELETE"):
                deleted.add(key)
    assert deleted and set(inputs.accounts) == set(range(oltp_service.ACCOUNTS)) - deleted


def test_read_stream_is_seeded_skewed_and_ranges_stay_inside_the_table():
    first = list(itertools.islice(read_mixed.reads(11), 4000))
    assert first == list(itertools.islice(read_mixed.reads(11), 4000))
    assert first != list(itertools.islice(read_mixed.reads(12), 4000))
    hot = sum(1 for _kind, key in first if key < read_mixed.HOT_KEYS) / len(first)
    assert 0.75 < hot < 0.85
    assert all(key + read_mixed.RANGE_ROWS <= read_mixed.ACCOUNTS
               for kind, key in first if kind == "range")
    kinds = {kind: sum(1 for k, _ in first if k == kind) / len(first)
             for kind in ("point", "range", "history")}
    assert 0.65 < kinds["point"] < 0.75 and 0.05 < kinds["history"] < 0.15


def test_read_mixed_puts_two_updates_after_every_fifth_read():
    ops = read_mixed.operations(11, 50)
    assert ops == read_mixed.operations(11, 50) != read_mixed.operations(12, 50)
    assert [op[0] for op in ops[5:7]] == ["update", "update2"]
    assert [op[0].startswith("update") for op in ops] == ([False] * 5 + [True] * 2) * 10
    values = [value for kind, _key, value in ops if kind.startswith("update")]
    assert values == list(range(1, 21))  # increasing: every version is distinct


def test_audit_inputs_repeat_and_track_the_final_balances():
    a, b = audit_embedded.Inputs(2, 0.5), audit_embedded.Inputs(2, 0.5)
    assert a.fingerprint() == b.fingerprint() and a.balances == b.balances
    assert a.fingerprint() != audit_embedded.Inputs(3, 0.5).fingerprint()
    replay = {key: 0 for key in range(a.accounts)}
    for txn in a.history:
        replay.update(dict(txn))
    for kind, key, balance in a.cycles:
        if kind == "commit":
            replay[key] = balance
    assert replay == a.balances
    assert [op[0] for op in a.cycles[:8]] == ["commit", "commit", "commit", "audit"] * 2
