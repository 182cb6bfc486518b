"""What must hold for *every* bundled service, in every mode it supports.

The service zoo is ``repro.harness.benchsuite.RECIPES``: each
service exported by ``repro.services`` over a world with several SEs, a
PE and a stale DHT.  Checked here: every callback a bundled class defines
actually runs (a callback no scenario reaches is a second implementation
nobody verifies); no class carries both shapes of the local phase; a
failed PE host costs replicas, never the command; and the ``ckpt.*``
registry counters are the per-node tallies.
"""

import pytest

import repro.services
from repro.core.command import ServiceCallbacks
from repro.core.events import CommandTracer, EventKind
from repro.harness.benchsuite import RECIPES, fingerprint

CALLBACKS = ("service_init", "collective_start", "collective_select",
             "collective_command", "collective_finalize", "local_start",
             "local_command", "local_command_batch", "local_finalize",
             "service_deinit")
BUNDLED = [cls for cls in (getattr(repro.services, name)
                           for name in repro.services.__all__)
           if isinstance(cls, type) and issubclass(cls, ServiceCallbacks)]
RUNS = [pytest.param(name, mode, id=f"{name}/{mode.value}")
        for name, (_build, modes) in RECIPES.items() for mode in modes]


def spy_on_callbacks(monkeypatch) -> list[tuple[str, str, int]]:
    """Wrap every callback each bundled class defines in its own
    ``__dict__``; returns the live ``(class, callback, ctx.node_id)`` log."""
    calls: list[tuple[str, str, int]] = []
    for cls in BUNDLED:
        for name in CALLBACKS:
            fn = vars(cls).get(name)
            if fn is None:
                continue

            def spy(self, ctx, *args, _fn=fn, _cls=cls.__name__, _name=name):
                calls.append((_cls, _name, ctx.node_id))
                return _fn(self, ctx, *args)

            monkeypatch.setattr(cls, name, spy)
    return calls


def test_the_zoo_holds_every_bundled_service():
    in_zoo = {type(build()[1]) for build, _modes in RECIPES.values()}
    assert in_zoo == set(BUNDLED)


def test_every_callback_a_bundled_service_defines_runs(monkeypatch):
    calls = spy_on_callbacks(monkeypatch)
    for name, (build, modes) in RECIPES.items():
        for mode in modes:
            world, service, scope, _outcome = build()
            assert world.concord.execute_command(service, scope,
                                                 mode=mode).success
    ran = {(cls, name) for cls, name, _node in calls}
    defined = {(cls.__name__, name) for cls in BUNDLED for name in CALLBACKS
               if vars(cls).get(name) is not None}
    assert defined - ran == set()


@pytest.mark.parametrize("cls", BUNDLED, ids=lambda c: c.__name__)
def test_one_shape_of_the_local_phase_per_service(cls):
    """The engine only ever calls ``local_command_batch``; a class that
    replaces it leaves any ``local_command`` in its MRO unreachable."""
    if cls.local_command_batch is not ServiceCallbacks.local_command_batch:
        assert cls.local_command is ServiceCallbacks.local_command


@pytest.mark.parametrize("name, mode", RUNS)
def test_failed_participant_host_costs_replicas_not_the_command(
        monkeypatch, name, mode):
    """Callbacks run node-locally, so a scope entity whose node is down
    gets none — and the executor's failover takes care of its replicas,
    even when the service insists on trying the dead one first."""
    world, service, scope, outcome = RECIPES[name][0]()
    dead, (pe,) = world.pe_node, world.pes
    world.concord.fail_node(dead)
    world.concord.detect_failures()
    service.collective_select = (
        lambda ctx, content_hash, candidates: pe if pe in candidates else None)
    calls = spy_on_callbacks(monkeypatch)
    tracer = CommandTracer()
    result = world.concord.execute_command(service, scope, mode=mode,
                                           tracer=tracer)
    assert result.success
    assert calls and dead not in {node for _cls, _name, node in calls}
    assert result.contexts[dead].state is None
    assert not [e for e in tracer.of_kind(EventKind.INVOKE)
                if e.data[2] == dead]
    offered = {e.data[0] for e in tracer.of_kind(EventKind.SELECT)
               if pe in e.data[1]}
    down = [e.data for e in tracer.of_kind(EventKind.INVOKE_FAILED)
            if e.data[2] == "node-down"]
    assert offered and sorted(down) == sorted(
        (h, pe, "node-down") for h in offered)
    produced = outcome(result)
    assert produced.get("restores_exactly", True)
    assert produced.get("image_rebuilt", True)


@pytest.mark.parametrize("name, mode", [
    run for run in RUNS if run.values[0].startswith(("checkpoint",
                                                     "incremental"))])
def test_ckpt_counters_are_the_per_node_tallies(name, mode):
    """One accounting site: the registry cannot drift from the states
    (the incremental service used to leave base pointers out)."""
    entry = fingerprint(RECIPES[name][0](), mode)
    assert entry["counters"] == entry["outcome"]["state_sums"]
    assert all(n > 0 for n in entry["counters"].values())

