"""The collective queries' union view under membership and content churn.

A focused run of the system state machine (tests/properties/machine.py):
writes, failover, cold and warm restarts, every repair mode, a join
pending across rules and entity detach, on RAM and persistent storage.
After every rule the machine's *union* invariant holds (each collective
answer equals the per-shard fold of its kernel); once the history
settles, its *truth* check (every answer equals
:mod:`repro.queries.reference`).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.properties.machine import SystemMachine, focused, schedules
# The machine's own run over every rule, collected here.
from tests.properties.machine import TestSystem  # noqa: F401


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestUnionViewProperty:
    @focused()
    @given(schedules("kill", "restart", "write", "repair", "begin_join",
                     "complete_join", "detach"),
           st.integers(0, 3), st.sampled_from(["mod", "hd"]))
    def test_union_equals_shard_fold_and_reference(self, backend, rules,
                                                   seed, placement):
        SystemMachine().replay(rules, drawn=True, seed=seed,
                               backend=backend, placement=placement)
