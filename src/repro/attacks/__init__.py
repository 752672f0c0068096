"""Storage-level attack toolkit used by tests, examples and benchmarks.

These functions model the paper's strong adversary (§2.5.2): full control of
the machine, editing database state *below* every engine and ledger check.
Each attack corresponds to a verification invariant that must catch it.
"""

from repro.attacks.tamper import (
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

__all__ = [
    "rewrite_row_value",
    "delete_history_row",
    "tamper_column_type",
    "tamper_nonclustered_index",
    "tamper_transaction_entry",
    "fork_block",
    "rewrite_chain",
    "drop_and_recreate_table",
    "tamper_view_definition",
]
