"""Hypothesis profiles.

``ci`` is the long run of the ledger model
(``tests/core/test_ledger_model.py``): 300 examples of up to 50 rule
steps, about 12 500 in all, drawn afresh on every run.  Select it with
``--hypothesis-profile=ci``.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=300,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
