"""Repair convergence under crash/restart/repair schedules (docs/FAULTS.md).

Focused runs of the system state machine (tests/properties/machine.py)
over its fault rules only.  After every rule its *union* invariant keeps
``0 <= coverage <= 1`` with ``degraded == (coverage < 1)`` and its
*homes* invariant every hash on a live node; once the history settles,
its *rebuild* check makes every shard equal a fresh cold rebuild.
"""

from hypothesis import given
from hypothesis import strategies as st

from tests.properties.machine import SystemMachine, focused, schedules


class TestRepairConvergence:
    @focused()
    @given(schedules("kill", "restart", "repair"), st.integers(0, 3))
    def test_post_repair_state_equals_fresh_rebuild(self, rules, seed):
        SystemMachine().replay(rules, drawn=True, seed=seed,
                               backend="memory", placement="mod")

    @focused()
    @given(schedules("kill", "crash", "detect_failures", "restart",
                     "repair"), st.integers(0, 3))
    def test_coverage_stays_in_unit_interval_and_queries_answer(self, rules,
                                                                seed):
        SystemMachine().replay(rules, drawn=True, seed=seed,
                               backend="memory", placement="mod")
