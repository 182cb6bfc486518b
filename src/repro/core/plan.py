"""Batch-mode execution plans.

In batch mode (paper §4.2) callbacks do not apply transformations
immediately; they "drive the creation of an execution plan by the
application service.  The application service then executes its plan as a
whole", typically from ``local_finalize`` or ``service_deinit``, giving the
developer a chance to refine or reorder it first.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any, NamedTuple

__all__ = ["PlanOp", "ExecutionPlan"]


class PlanOp(NamedTuple):
    """One deferred operation: an opcode and its arguments."""

    op: str
    args: tuple = ()


class ExecutionPlan:
    """An append-only list of deferred operations with execution support."""

    def __init__(self) -> None:
        self._ops: list[PlanOp] = []
        self.executed = False

    def record(self, op: str, *args: Any) -> None:
        if self.executed:
            raise RuntimeError("cannot append to an executed plan")
        self._ops.append(PlanOp(op, args))

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[PlanOp]:
        return iter(self._ops)

    def ops_of(self, op: str) -> list[PlanOp]:
        return [p for p in self._ops if p.op == op]

    def execute(self, handlers: dict[str, Callable[..., None]]) -> int:
        """Run every op through its handler; returns ops executed.

        The service supplies one handler per opcode; unknown opcodes raise
        so silently-dropped plan entries cannot happen.
        """
        if self.executed:
            raise RuntimeError("plan already executed")
        for p in self._ops:
            try:
                handler = handlers[p.op]
            except KeyError:
                raise KeyError(f"no handler for plan op {p.op!r}") from None
            handler(*p.args)
        self.executed = True
        return len(self._ops)

    def reorder(self, key: Callable[[PlanOp], Any]) -> None:
        """Refine the plan by stable-sorting ops (the batch-mode hook the
        paper motivates: 'allows the application service developer to
        refine and enhance the plan')."""
        if self.executed:
            raise RuntimeError("cannot reorder an executed plan")
        self._ops.sort(key=key)

    def clear(self) -> None:
        self._ops.clear()
        self.executed = False
