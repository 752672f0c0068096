"""Truncation (§5.2) at any legal cut preserves verifiability, as
properties of the ledger model (``tests/core/test_ledger_model.py``).

Truncation re-anchors live rows, purges retired history, deletes a chain
prefix and installs a new chain anchor.  For any history and any cut, the
surviving database keeps its visible state, verifies against every digest
still in range, still detects a fresh tamper, and survives a restart.
"""

from hypothesis import given
from hypothesis import strategies as st

from tests.core.test_ledger_model import FOCUSED, LEGITIMATE, model_after, step


def truncate(machine, data):
    first = machine.db.ledger.first_block_id()
    step(machine, data, "truncate")  # tables equal the model; verify passes
    assert machine.db.ledger.first_block_id() > first


@given(data=st.data())
@FOCUSED
def test_truncate_anywhere_preserves_state_and_verifiability(data):
    with model_after(data, LEGITIMATE) as machine:
        truncate(machine, data)
        machine.tamper_a_copy(data, history=False)


@given(data=st.data())
@FOCUSED
def test_truncation_survives_restart(data):
    with model_after(data, LEGITIMATE) as machine:
        truncate(machine, data)
        if data.draw(st.booleans(), label="crash"):
            machine.crash(point=None, skip=0)
        else:
            machine.checkpoint(reopen=True)
