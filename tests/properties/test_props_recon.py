"""Set-reconciliation repair (docs/RECONCILIATION.md) as the only repair.

Focused runs of the system state machine (tests/properties/machine.py)
whose ``repair`` rule is narrowed to ``mode="recon"``, ended by every
node back and one more recon pass.  Every recon pass reports
``node_ops`` summing to the copies it moved; one run with every node up
must converge on its own, so the rule checks every shard against a cold
rebuild right after it and a second recon pass for a no-op.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.properties.machine import FAULTY_NODES, SystemMachine, focused, schedules

RECON = {"mode": st.just("recon")}
# Every node back, then the recon pass whose result is checked.
LAST = [*(("restart", {"node": node, "warm": False, "via": "call"}) for node in FAULTY_NODES),
        ("repair", {"mode": "recon"})]


@pytest.mark.parametrize("backend", ("memory", "mmap"))
class TestReconRepairProperty:
    @focused()
    @given(schedules("kill", "restart", "write", "repair", repair=RECON),
           st.integers(0, 3))
    def test_recon_equals_cold_rebuild(self, backend, rules, seed):
        SystemMachine().replay([*rules, *LAST], drawn=True, seed=seed,
                               backend=backend, placement="mod")

    @focused()
    @given(schedules("kill", "crash", "restart", "write", "remove_entity",
                     "repair", repair=RECON),
           st.integers(0, 3))
    def test_recon_reports_divergent_nodes(self, backend, rules, seed):
        SystemMachine().replay([*rules, *LAST], drawn=True, seed=seed,
                               backend=backend, placement="mod")
