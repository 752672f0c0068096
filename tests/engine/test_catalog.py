"""Catalog unit tests: identity, renames, persistence, DDL durability."""

import pytest

from repro.engine.catalog import Catalog, TableInfo
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.engine.wal import DDL, read_wal
from repro.errors import DuplicateObjectError, TableNotFoundError


def schema(name="t"):
    return TableSchema(
        name,
        [Column("id", INT, nullable=False), Column("v", VARCHAR(8))],
        primary_key=["id"],
    )


class TestCatalog:
    def test_ids_are_never_reused(self):
        catalog = Catalog()
        first = catalog.create_table(schema("a"))
        catalog.drop_table("a")
        second = catalog.create_table(schema("a"))
        assert second.table_id > first.table_id

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.create_table(schema("a"))
        with pytest.raises(DuplicateObjectError):
            catalog.create_table(schema("a"))

    def test_lookup_by_name_and_id(self):
        catalog = Catalog()
        info = catalog.create_table(schema("a"))
        assert catalog.get("a") is info
        assert catalog.get_by_id(info.table_id) is info
        with pytest.raises(TableNotFoundError):
            catalog.get("missing")
        with pytest.raises(TableNotFoundError):
            catalog.get_by_id(999)

    def test_rename_preserves_id(self):
        catalog = Catalog()
        info = catalog.create_table(schema("old"))
        catalog.rename_table("old", "new")
        assert catalog.get("new").table_id == info.table_id
        assert not catalog.exists("old")
        with pytest.raises(DuplicateObjectError):
            catalog.create_table(schema("other"))  # sanity
            catalog.rename_table("other", "new")

    def test_dict_round_trip(self):
        catalog = Catalog()
        catalog.create_table(schema("a"), {"role": "ledger", "k": 1})
        catalog.create_table(schema("b"))
        catalog.drop_table("b")
        restored = Catalog.from_dict(catalog.to_dict())
        assert restored.get("a").options == {"role": "ledger", "k": 1}
        # The id counter survives, so recreated tables keep fresh ids.
        recreated = restored.create_table(schema("c"))
        assert recreated.table_id == 3


class TestDdlDurability:
    def test_every_ddl_writes_a_catalog_snapshot(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), clock=LogicalClock())
        db.create_table(schema("a"))
        db.rename_table("a", "b")
        from repro.engine.schema import IndexDefinition

        db.create_index("b", IndexDefinition("ix_v", ("v",)))
        db.drop_index("b", "ix_v")
        db.update_table_options(db.catalog.get("b").table_id, {"flag": True})
        records = [r for r in read_wal(db._wal_path(0))[0] if r.kind == DDL]
        assert len(records) == 5
        # The last snapshot reflects the final state.
        final = Catalog.from_dict(records[-1].payload["catalog"])
        assert final.exists("b")
        assert final.get("b").options == {"flag": True}

    def test_options_update_survives_crash(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), clock=LogicalClock())
        table = db.create_table(schema("a"))
        db.update_table_options(table.table_id, {"role": "special"})
        db.simulate_crash()
        recovered = Database.open(str(tmp_path / "db"), clock=LogicalClock())
        assert recovered.catalog.get("a").options == {"role": "special"}

    def test_rename_survives_restart(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), clock=LogicalClock())
        db.create_table(schema("old"))
        db.rename_table("old", "new")
        db.close()
        recovered = Database.open(str(tmp_path / "db"), clock=LogicalClock())
        assert recovered.has_table("new")
        assert not recovered.has_table("old")
