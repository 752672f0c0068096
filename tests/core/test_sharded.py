"""Sharded ledger partitions under the Merkle super-chain.

Covers the partitioned deployment end to end: table → shard routing,
cross-shard verification, super-chain persistence and self-checks, the
whole-shard-rewrite tamper drill (the attack per-shard verification cannot
see), instance-scoped lock/role labels for two databases in one process,
and the sharded HTTP surface (``/shards``, per-shard ``/healthz``).
"""

import json
import threading
import urllib.error
import urllib.request
import zlib

import pytest

from repro.attacks import rewrite_shard_chain
from repro.core.ledger_database import LedgerDatabase
from repro.core.sharded import ShardedLedger, SuperChainMonitor, shard_name
from repro.core.super_chain import ShardTip, SuperChain, super_root
from repro.errors import LedgerConfigurationError
from repro.obs import OBS
from repro.obs.lockstats import registered_locks


@pytest.fixture(autouse=True)
def _reset_obs():
    """The super monitor enables the process event log; restore defaults."""
    OBS.reset()
    yield
    OBS.reset()
    OBS.disable()


@pytest.fixture
def sharded(tmp_path):
    deployment = ShardedLedger.open(str(tmp_path / "db"), shards=3,
                                    block_size=4)
    yield deployment
    try:
        deployment.close()
    except Exception:
        pass


def seed(deployment, tables_per_shard=1, rows=6):
    """Create enough ledger tables that every shard owns at least one."""
    owned = {index: 0 for index in range(deployment.shard_count)}
    candidate = 0
    tables = []
    while min(owned.values()) < tables_per_shard:
        name = f"t{candidate}"
        candidate += 1
        index = deployment.shard_index_for_table(name)
        if owned[index] >= tables_per_shard:
            continue
        owned[index] += 1
        deployment.sql(
            f"CREATE TABLE {name} (id INT PRIMARY KEY, v INT) "
            "WITH (LEDGER = ON)"
        )
        deployment.insert(name, [(i, i * 10) for i in range(rows)])
        tables.append(name)
    return tables


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


class TestRouting:
    def test_hash_routing_is_stable_crc32(self, sharded):
        for name in ("accounts", "orders", "lineitem", "t42"):
            expected = zlib.crc32(name.encode("utf-8")) % 3
            assert sharded.shard_index_for_table(name) == expected
            assert sharded.route(name) is sharded.shards[expected]

    def test_statement_routing_matches_table_routing(self, sharded):
        sharded.sql(
            "CREATE TABLE routed (id INT PRIMARY KEY, v INT) "
            "WITH (LEDGER = ON)"
        )
        sharded.sql("INSERT INTO routed VALUES (1, 10)")
        owner = sharded.route("routed")
        assert owner.engine.has_table("routed")
        for other in sharded.shards:
            if other is not owner:
                assert not other.engine.has_table("routed")
        assert sharded.sql("SELECT * FROM routed") == [{"id": 1, "v": 10}]

    def test_explicit_table_map_overrides_hash(self, tmp_path):
        deployment = ShardedLedger.open(
            str(tmp_path / "db"), shards=3, block_size=4,
            table_map={"pinned": 2},
        )
        try:
            assert deployment.shard_index_for_table("pinned") == 2
            assert deployment.route("pinned") is deployment.shards[2]
        finally:
            deployment.close()
        # The map is persisted: a reopen routes identically.
        reopened = ShardedLedger.open(str(tmp_path / "db"))
        try:
            assert reopened.shard_index_for_table("pinned") == 2
        finally:
            reopened.close()

    def test_shard_count_is_fixed_at_creation(self, tmp_path):
        path = str(tmp_path / "db")
        ShardedLedger.open(path, shards=3, block_size=4).close()
        with pytest.raises(LedgerConfigurationError):
            ShardedLedger.open(path, shards=5)
        reopened = ShardedLedger.open(path)
        try:
            assert reopened.shard_count == 3
        finally:
            reopened.close()

    def test_shard_names_and_scoped_contexts(self, sharded):
        names = [db.context.name for db in sharded.shards]
        assert names == [shard_name(i) for i in range(3)] == ["s0", "s1", "s2"]
        assert sharded.shards[1].context.scoped("ledger.storage") == \
            "ledger.storage@s1"


class TestSuperChain:
    def test_seal_persists_and_reloads(self, tmp_path):
        path = str(tmp_path / "chain.jsonl")
        chain = SuperChain(path)
        tips = [ShardTip("s0", 3, b"\x01" * 32), ShardTip("s1", 5, b"\x02" * 32)]
        first = chain.seal(tips, "2026-01-01T00:00:00")
        second = chain.seal(tips, "2026-01-01T00:00:05")
        assert second.previous_hash == first.super_hash()

        reloaded = SuperChain(path)
        assert reloaded.height == 1
        assert [b.super_hash() for b in reloaded.blocks()] == \
            [first.super_hash(), second.super_hash()]
        assert reloaded.verify_chain() == []

    def test_super_root_is_order_independent(self):
        tips = [ShardTip(f"s{i}", i, bytes([i]) * 32) for i in range(4)]
        assert super_root(tips) == super_root(list(reversed(tips)))

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "chain.jsonl")
        chain = SuperChain(path)
        chain.seal([ShardTip("s0", 0, b"\x01" * 32)], "t0")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"super_id": 1, "previous_ha')  # crash mid-append
        assert SuperChain(path).height == 0

    def test_verify_chain_catches_rewritten_entry(self, tmp_path):
        path = str(tmp_path / "chain.jsonl")
        chain = SuperChain(path)
        tips = [ShardTip("s0", 0, b"\x01" * 32)]
        chain.seal(tips, "t0")
        chain.seal(tips, "t1")
        lines = open(path, encoding="utf-8").read().splitlines()
        doctored = json.loads(lines[0])
        doctored["sealed_time"] = "t0-backdated"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doctored, sort_keys=True) + "\n")
            fh.write(lines[1] + "\n")
        findings = SuperChain(path).verify_chain()
        assert any("previous-hash link broken" in f for f in findings)


class TestCrossShardVerification:
    def test_verify_passes_and_rederives_super_root(self, sharded):
        seed(sharded)
        sharded.seal_super_block()
        report = sharded.verify()
        assert report.ok
        assert report.failed_shards() == []
        assert report.root_check["root_match"]
        assert "PASSED" in report.summary()

    def test_empty_shards_get_placeholder_tips(self, tmp_path):
        deployment = ShardedLedger.open(str(tmp_path / "db"), shards=3,
                                        block_size=4)
        try:
            # No tables anywhere: every tip is the empty placeholder, and
            # the deployment still seals and verifies.
            deployment.seal_super_block()
            assert deployment.verify().ok
        finally:
            deployment.close()

    def test_concurrent_commits_on_every_shard_verify(self, tmp_path):
        """Two threads commit at once into tables owned by different
        shards, so both shard pipelines close blocks concurrently; the
        sealed super-block still verifies and re-derives its root."""
        deployment = ShardedLedger.open(str(tmp_path / "db"), shards=2,
                                        block_size=4)
        try:
            owners = {}
            candidate = 0
            while len(owners) < 2:
                name = f"t{candidate}"
                candidate += 1
                owners.setdefault(deployment.shard_index_for_table(name), name)
            for name in owners.values():
                deployment.sql(
                    f"CREATE TABLE {name} (id INT PRIMARY KEY, v INT) "
                    "WITH (LEDGER = ON)"
                )
            errors = []
            barrier = threading.Barrier(len(owners))

            def commit_rows(table):
                try:
                    barrier.wait()
                    for i in range(8):
                        deployment.insert(table, [(i, i * 10)])
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)

            workers = [
                threading.Thread(target=commit_rows, args=(name,))
                for name in owners.values()
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            if errors:
                raise errors[0]

            deployment.seal_super_block()
            report = deployment.verify()
            assert report.ok, report.summary()
            assert report.root_check["root_match"]
            heights = [
                shard["chain_height"]
                for shard in deployment.status()["shards"].values()
            ]
            assert len(heights) == 2 and all(h >= 0 for h in heights)
        finally:
            deployment.close()

    def test_status_reports_per_shard_and_super_height(self, sharded):
        seed(sharded)
        sharded.seal_super_block()
        status = sharded.status()
        assert set(status["shards"]) == {"s0", "s1", "s2"}
        for entry in status["shards"].values():
            assert {"chain_height", "queue_depth", "digest_lag"} <= \
                set(entry)
        assert status["super_chain_height"] == 0


class TestShardRewriteDrill:
    """The attack the super-chain exists for: one shard's chain rewritten
    *self-consistently* (every previous-hash recomputed) passes its own
    verification, but the sealed super-block tips are outside the
    adversary's reach."""

    @pytest.fixture
    def attacked(self, sharded):
        seed(sharded)
        sharded.seal_super_block()
        assert sharded.verify().ok
        victim = sharded.shards[2]
        rewrite_shard_chain(victim, shift_seconds=7)
        return sharded

    def test_per_shard_verification_cannot_see_the_rewrite(self, attacked):
        victim = attacked.shards[2]
        digest = victim.generate_digest()
        assert victim.verify([digest]).ok, (
            "a self-consistent rewrite must pass per-shard verification — "
            "otherwise this drill tests nothing"
        )

    def test_super_root_cross_check_flags_only_the_victim(self, attacked):
        check = attacked.check_super_roots()
        assert check["checked"] and not check["ok"]
        flagged = [n for n, e in check["per_shard"].items() if not e["ok"]]
        assert flagged == ["s2"]
        report = attacked.verify()
        assert not report.ok
        assert "MISMATCH" in report.summary()

    def test_monitor_detects_within_one_cycle(self, attacked):
        monitor = SuperChainMonitor(attacked, interval=999.0)
        assert monitor.run_cycle() == "failed"
        assert not monitor.healthy
        assert monitor.status()["flagged_shards"] == ["s2"]
        events = OBS.events.read(category="tamper", name="tamper.detected")
        assert events, "tamper.detected must be emitted"
        assert {e.payload.get("shard") for e in events} == {"s2"}
        assert events[-1].payload["source"] == "super_chain"

    def test_background_monitor_trips_and_health_isolates(self, attacked):
        monitor = attacked.start_super_monitor(interval=0.05)
        try:
            assert monitor.wait_for(lambda: not monitor.healthy, timeout=10.0)
        finally:
            attacked.stop_super_monitor()
        health = attacked.health()
        assert health["status"] == "tamper-detected"
        assert health["shards"]["s2"]["status"] == "tamper-detected"
        assert health["shards"]["s0"]["status"] == "ok"
        assert health["shards"]["s1"]["status"] == "ok"

    def test_healthz_503_with_per_shard_verdicts(self, attacked):
        monitor = SuperChainMonitor(attacked, interval=999.0)
        monitor.run_cycle()
        attacked._super_monitor = monitor
        server = attacked.start_obs_server()
        try:
            status, body = http_get(f"{server.url}/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["shards"]["s2"]["status"] == "tamper-detected"
            assert payload["shards"]["s0"]["status"] == "ok"

            status, body = http_get(f"{server.url}/shards")
            assert status == 200
            shards = json.loads(body)["shards"]
            assert set(shards) == {"s0", "s1", "s2"}
            assert all("chain_height" in entry for entry in shards.values())
        finally:
            attacked.stop_obs_server()
            attacked._super_monitor = None


class TestInstanceScopedLabels:
    """Regression for the label collision: two databases in one process
    must not share lock names or thread-role tags."""

    def test_two_databases_side_by_side(self, tmp_path):
        # Earlier tests may have leaked claimed names (databases opened and
        # never closed), so assert the collision-avoidance *relationship*,
        # not exact names: concurrent instances always get distinct names
        # and therefore distinct lock labels.
        first = LedgerDatabase.open(str(tmp_path / "one"), block_size=4)
        second = LedgerDatabase.open(str(tmp_path / "two"), block_size=4)
        try:
            assert first.context.name != second.context.name
            first_lock = first.context.scoped("ledger.storage")
            second_lock = second.context.scoped("ledger.storage")
            assert first_lock != second_lock
            assert second_lock == (
                f"ledger.storage@{second.context.name}"
                if second.context.name else "ledger.storage"
            )
            locks = registered_locks()
            assert first_lock in locks
            assert second_lock in locks

            first.sql(
                "CREATE TABLE a (id INT PRIMARY KEY) WITH (LEDGER = ON)"
            )
            second.sql(
                "CREATE TABLE b (id INT PRIMARY KEY) WITH (LEDGER = ON)"
            )
            first.sql("INSERT INTO a VALUES (1)")
            second.sql("INSERT INTO b VALUES (2)")
            assert first.verify([first.generate_digest()]).ok
            assert second.verify([second.generate_digest()]).ok
        finally:
            first_name = first.context.name
            second.close()
            first.close()
        # Names are released at close: a fresh open reclaims the lowest
        # free name — the one ``first`` just gave back.
        third = LedgerDatabase.open(str(tmp_path / "three"), block_size=4)
        try:
            assert third.context.name == first_name
        finally:
            third.close()

    def test_shard_events_carry_shard_labels(self, sharded):
        OBS.events.enable()
        seed(sharded, rows=2)
        for db in sharded.shards:
            db.pipeline.drain(seal_open=True)
        closed = OBS.events.read(category="ledger", name="block.closed")
        shards_seen = {e.payload.get("shard") for e in closed}
        assert shards_seen >= {"s0", "s1", "s2"}
