"""The RDBMS substrate: storage, indexing, logging, transactions, execution.

This package is a from-scratch miniature relational engine standing in for
SQL Server in the reproduction.  It provides the integration points the
SQL Ledger paper relies on:

* typed rows physically serialized into slotted pages (so storage-level
  tampering is a real byte-level attack);
* clustered and nonclustered B-tree indexes with independent storage;
* a redo-only write-ahead log (a transaction's records are appended at
  its COMMIT; recovery is analysis and redo) and checkpointing;
* transactions with savepoints and partial rollback;
* an iterator-model executor whose DML operators expose hooks the ledger
  layer uses to hash modified rows;
* a commit pipeline that lets the ledger layer piggyback transaction entries
  on COMMIT log records (paper §3.3.2).
"""

from repro.engine.database import Database
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import (
    BIGINT,
    BIT,
    CHAR,
    DATE,
    DATETIME,
    DECIMAL,
    FLOAT,
    INT,
    SMALLINT,
    TINYINT,
    VARBINARY,
    VARCHAR,
    SqlType,
    type_from_meta,
)

__all__ = [
    "Database",
    "Column",
    "TableSchema",
    "IndexDefinition",
    "SqlType",
    "TINYINT",
    "SMALLINT",
    "INT",
    "BIGINT",
    "BIT",
    "FLOAT",
    "DECIMAL",
    "CHAR",
    "VARCHAR",
    "VARBINARY",
    "DATETIME",
    "DATE",
    "type_from_meta",
]
