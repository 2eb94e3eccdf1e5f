"""Shared helpers for property-based tests.

These tests drive the full simulated stack, so they use the zero-cost
profile (logic is under test, not latency) and modest example counts.
The ``soak`` Hypothesis profile (``pytest --hypothesis-profile=soak``)
raises the budget of the tests that leave it to the profile.
"""

from hypothesis import settings

from repro.core.config import TabsConfig
from repro.kernel.costs import ZERO_COST, ZERO_CPU

settings.register_profile("soak", max_examples=2_000,
                          stateful_step_count=80)


def fast_config(**overrides) -> TabsConfig:
    return TabsConfig(profile=ZERO_COST, cpu_costs=ZERO_CPU, **overrides)
