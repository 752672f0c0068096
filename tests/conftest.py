"""Hypothesis profiles, a clean fault registry, and the ledger's one-lock
check.

``ci`` is the long run of the ledger model
(``tests/core/test_ledger_model.py``): 300 examples of up to 50 rule
steps, about 12 500 in all, drawn afresh on every run, ending with a
line that says how often each rule ran.  Select it with
``--hypothesis-profile=ci``.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from repro.core.database_ledger import DatabaseLedger
from repro.engine.database import Database
from repro.faults import FAULTS

settings.register_profile(
    "ci",
    max_examples=300,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(autouse=True)
def clean_faults():
    """Every test starts and ends with a disarmed fault registry, so a
    failing assertion mid-test never leaves an armed fault behind."""
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture(autouse=True)
def release_open_databases(monkeypatch):
    """At teardown, release the WAL of every engine database the test
    opened and left open, as a crash would (``simulate_crash``: nothing is
    written).  Under ``python -X dev`` no WAL file is reported unclosed."""
    opened = []
    open_database = Database.open.__func__

    def tracked(cls, *args, **kwargs):
        db = open_database(cls, *args, **kwargs)
        opened.append(db)
        return db

    monkeypatch.setattr(Database, "open", classmethod(tracked))
    yield
    for db in opened:
        if not db.closed:
            db.simulate_crash()


@pytest.fixture
def storage_lock_checked(monkeypatch):
    """Fail the test if ``DatabaseLedger.assign`` or ``enqueue`` runs on a
    thread that does not own the ledger's ``storage_lock``: a commit holds
    it from its slot assignment through its enqueue, which is what lets a
    drain find every sealed block whole.  Yields the calls checked, by
    method name."""
    calls, strays = Counter(), []

    def check(name):
        method = getattr(DatabaseLedger, name)

        def checked(self, *args):
            calls[name] += 1
            if not self.storage_lock._is_owned():
                strays.append((name, threading.current_thread().name))
            return method(self, *args)

        monkeypatch.setattr(DatabaseLedger, name, checked)

    check("assign")
    check("enqueue")
    yield calls
    assert not strays, f"ran without storage_lock: {strays}"


def pytest_terminal_summary(terminalreporter):
    """Under the ``ci`` profile, how often each ledger-model rule ran."""
    model = sys.modules.get("tests.core.test_ledger_model")
    line = model.rule_counts_line() if model is not None else None
    if line:
        terminalreporter.write_line(line)
