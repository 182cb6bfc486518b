"""Traced runs: per-run trace and metrics artifacts.

:func:`run_traced_null` brings ConCORD up with span tracing on, runs one
null service command (paper §5.4), and returns a table comparing each
phase's span total against the executor's :class:`~repro.core.executor.
PhaseBreakdown` wall — the two must agree, since the executor builds
both from the same per-node charge totals.  :func:`run_traced_experiment`
wraps any ``ALL_EXPERIMENTS`` runner in a capture session so its
internally-built ConCORD instances trace themselves; the CLI ``trace``
subcommand dumps the collected traces as per-run artifacts.
"""

from __future__ import annotations

from repro.core.command import ExecMode
from repro.core.concord import ConCORD
from repro.core.config import ConCORDConfig
from repro.core.scope import ServiceScope
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.obs import ObsConfig, capture_traces
from repro.services.null import NullService
from repro.sim.cluster import Cluster
from repro.sim.costmodel import NEW_CLUSTER
from repro.util.stats import Table
from repro import workloads

__all__ = ["run_traced_null", "run_traced_experiment"]

_PHASES = ("init", "collective", "local", "teardown")


def run_traced_null(n_nodes: int = 4, pages_per_entity: int = 2048,
                    n_represented: int = 64, seed: int = 3,
                    mode: ExecMode = ExecMode.INTERACTIVE):
    """One traced null command.

    Returns ``(table, result, obs)``: the per-phase span-vs-bookkeeping
    table, the :class:`~repro.core.executor.CommandResult`, and the
    :class:`~repro.obs.Observability` whose tracer holds the trace.
    """
    cluster = Cluster(n_nodes, cost=NEW_CLUSTER, seed=seed)
    entities = workloads.instantiate(
        cluster, workloads.moldy(n_nodes, pages_per_entity, seed=seed))
    with ConCORD(cluster, ConCORDConfig(
            n_represented=n_represented,
            obs=ObsConfig(trace=True))) as concord:
        concord.initial_scan()
        eids = [e.entity_id for e in entities]
        result = concord.execute_command(NullService(), ServiceScope.of(eids),
                                         mode=mode, seed=seed)
        tracer = concord.obs.tracer
        t = Table("traced null command: span totals vs phase bookkeeping",
                  "phase")
        s_span = t.add_series("span_wall_ms")
        s_book = t.add_series("bookkeeping_wall_ms")
        for ph in _PHASES:
            t.x_values.append(ph)
            s_span.append(tracer.total(f"cmd.phase.{ph}") * 1e3)
            s_book.append(result.phases[ph].wall * 1e3)
        t.note(f"{len(tracer)} spans recorded; the trace is a deterministic "
               "function of the seed")
    return t, result, concord.obs


def run_traced_experiment(name: str, **kw):
    """Run one named experiment with every ConCORD it builds tracing.

    Returns ``(table, capture)``: the experiment's usual result table and
    the :class:`~repro.obs.TraceCapture` holding one Observability per
    ConCORD instance the runner brought up, in bring-up order.
    """
    runner = ALL_EXPERIMENTS.get(name)
    if runner is None:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"choose from {sorted(ALL_EXPERIMENTS)}")
    with capture_traces() as cap:
        table = runner(**kw)
    return table, cap
