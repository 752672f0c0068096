"""Verification fails exactly when it should, as properties of the ledger
model (``tests/core/test_ledger_model.py``).

1. **Soundness**: any legitimate history — DML, savepoints, rollbacks,
   digests, receipts, checkpoints and restarts — verifies against every
   digest taken along the way, and still does after a crash.
2. **Completeness**: after any single change to a stored live or history
   row, ``verify`` against a digest taken before it fails.
"""

from hypothesis import given
from hypothesis import strategies as st

from tests.core.test_ledger_model import FOCUSED, LEGITIMATE, model_after, step


@given(data=st.data())
@FOCUSED
def test_soundness_any_legitimate_history_verifies(data):
    with model_after(data, LEGITIMATE) as machine:
        machine.digest()
        machine.verify_digests()


@given(data=st.data())
@FOCUSED
def test_completeness_any_single_row_tamper_detected(data):
    with model_after(data, LEGITIMATE) as machine:
        history = data.draw(st.booleans(), label="history")
        if history:
            step(machine, data, "delete")  # so there is a history row
        machine.tamper_a_copy(data, history)


@given(data=st.data())
@FOCUSED
def test_soundness_survives_crash_recovery(data):
    """A crash, plain or at an in-process fault point: recovery finds the
    committed state, and it verifies against every digest in range."""
    with model_after(data, LEGITIMATE) as machine:
        step(machine, data, "crash")
