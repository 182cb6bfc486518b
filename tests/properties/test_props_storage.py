"""Warm restart of a whole service process (docs/STORAGE.md).

A focused run of the system state machine (tests/properties/machine.py)
on persistent storage: crashes, restarts, writes, repairs and durability
flushes, ended by the machine's ``restart_process`` rule (a clean or
unclean exit, a new process on the same root, ``warm_restart``) once
every node is back, so its shards are checked against a RAM-only cold
rebuild right after the warm restart.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.properties.machine import FAULTY_NODES, SystemMachine, focused, schedules


@pytest.mark.parametrize("backend", ("mmap",))
class TestWarmRestartProperty:
    @focused()
    @given(schedules("kill", "restart", "write", "repair", "flush"),
           st.integers(0, 3), schedules("restart_process", max_size=1))
    def test_warm_restart_equals_cold_rebuild(self, backend, rules, seed,
                                              last):
        rejoin = [("restart", {"node": node, "warm": False, "via": "call"})
                  for node in FAULTY_NODES]
        SystemMachine().replay(
            [*rules, *rejoin, *last],
            drawn=True, seed=seed, backend=backend, placement="mod")
