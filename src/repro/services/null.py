"""The null service command (paper §5.4).

"We focus on the baseline costs involved for any service command by
constructing a 'null' service that operates over the data in a set of
entities, but does not transform the data in any way.  That is, all of the
callbacks ... are made, but they do nothing other than touch the memory."

In batch mode the callbacks record the plan and the memory is touched in
the final step — both modes are implemented so Figs 10-12 can compare them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.command import ExecMode, NodeContext, ServiceCallbacks
from repro.core.scope import EntityRole
from repro.memory.entity import Entity
from repro.memory.nsm import BlockRef

__all__ = ["NullService", "NullNodeState"]


@dataclass
class NullNodeState:
    """Per-node bookkeeping (counts only; the null service keeps no data)."""

    started_entities: int = 0
    collective_blocks: int = 0
    local_blocks: int = 0
    covered_blocks: int = 0
    finalized_entities: int = 0
    deinit_called: bool = False


class NullService(ServiceCallbacks):
    """Touch every block once collectively and once locally; change nothing."""

    name = "null"

    def service_init(self, ctx: NodeContext, config: Any) -> None:
        ctx.state = NullNodeState()

    def collective_start(self, ctx: NodeContext, role: EntityRole,
                         entity: Entity, hash_sample: np.ndarray) -> None:
        ctx.state.started_entities += 1

    def collective_command(self, ctx: NodeContext, entity: Entity,
                           content_hash: int, block: BlockRef) -> Any:
        if ctx.mode is ExecMode.BATCH:
            ctx.plan.record("touch", block.entity_id, block.page_idx)
        else:
            ctx.read_block(block)  # the touch
            ctx.charge_per_block(ctx.cost.page_touch)
        ctx.state.collective_blocks += 1
        return True

    def local_command_batch(self, ctx: NodeContext, entity: Entity,
                            hashes: np.ndarray, covered: np.ndarray,
                            handled_map: dict[int, Any]) -> None:
        """The whole local phase of one SE: one charge for all blocks."""
        n = len(hashes)
        if ctx.mode is ExecMode.BATCH:
            ctx.plan.record("touch_all", entity.entity_id, n)
        else:
            ctx.charge_per_block(ctx.cost.page_touch, n)
        ctx.state.local_blocks += n
        ctx.state.covered_blocks += int(covered.sum())

    @staticmethod
    def _run_plan(ctx: NodeContext) -> None:
        """Batch mode's final step: touch everything the plan recorded."""
        touch = ctx.cost.page_touch
        ctx.plan.execute({
            "touch": lambda _eid, _idx: ctx.charge_per_block(touch),
            "touch_all": lambda _eid, n: ctx.charge_per_block(touch, n)})

    def local_finalize(self, ctx: NodeContext, entity: Entity) -> None:
        ctx.state.finalized_entities += 1
        if ctx.mode is ExecMode.BATCH and not ctx.plan.executed:
            self._run_plan(ctx)

    def service_deinit(self, ctx: NodeContext) -> bool:
        if (ctx.mode is ExecMode.BATCH and len(ctx.plan)
                and not ctx.plan.executed):
            # A node holding only PEs never sees local_finalize; run its
            # collective-phase plan here.
            self._run_plan(ctx)
        ctx.state.deinit_called = True
        return True
