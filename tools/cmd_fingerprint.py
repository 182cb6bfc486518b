#!/usr/bin/env python3
"""What does every bundled service command model, to the last bit?

    python3 tools/cmd_fingerprint.py > fingerprint.json

Runs each service exported by ``repro.services`` in each command mode it
supports (plus the checkpoint's ``refine_plan`` and ``pfs`` options and a
checkpoint on a 66-node / 70-entity cluster, where entity masks are wider
than 64 bits) over one fixed small world — more entities than nodes, a
participating entity, and memory mutated after the last scan so the DHT
is stale — and prints one JSON entry per run: ``repr`` of the wall time
and of every phase's wall/cpu/comm/max_node_cpu, the ``CommandStats`` with
per-node tx/rx bytes, a SHA-256 of the ``CommandTracer`` event stream and
of the per-node ``cmd.cpu``/``cmd.comm`` spans, and what the service
produced (checkpoint records, node states, ``ckpt.*`` counters).

Two commits whose outputs ``diff`` empty model the same commands; so do
two runs under different ``CONCORD_WORKERS`` / ``CONCORD_STORAGE``.
``tests/core/test_cmd_fingerprint.py`` holds the output to a committed
golden; ``RECIPES`` is also the service zoo other tests run their own
scenarios over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro import (Cluster, ConCORD, ConCORDConfig, Entity,  # noqa: E402
                   ObsConfig, ServiceScope, workloads)
from repro.core.command import ExecMode, ServiceCallbacks  # noqa: E402
from repro.core.events import CommandTracer  # noqa: E402
from repro.core.executor import CommandResult  # noqa: E402
from repro.services import (CheckpointStore, CollectiveCheckpoint,  # noqa: E402
                            CollectiveDedup, CollectiveMigration,
                            CollectiveReconstruction, CollectiveReplication,
                            IncrementalCheckpoint, NullService,
                            make_replica_stores, restore_entity,
                            restore_incremental_entity)
from repro.services.migrate import MigrationPlan  # noqa: E402
from repro.services.reconstruct import (ImageDescriptor,  # noqa: E402
                                        register_image)
from repro.storage import ParallelFileSystem  # noqa: E402
from repro.util.hashing import page_hashes  # noqa: E402

INTERACTIVE, BATCH = ExecMode.INTERACTIVE, ExecMode.BATCH
CKPT_COUNTERS = ("ckpt.shared_appends", "ckpt.pointer_records",
                 "ckpt.data_records")


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class World:
    """Twelve moldy entities on five nodes, scanned once.

    Entities 0-10 go round-robin over nodes 0-3 (two or three per node,
    so a node's CPU is a sum over several SEs); the last entity — alone on
    the last node, which may therefore fail without taking a service
    entity along — is the participating entity.
    """

    def __init__(self, n_nodes: int = 5, n_entities: int = 12,
                 pages: int = 101, cost: str = "new-cluster") -> None:
        self.cluster = Cluster(n_nodes=n_nodes, cost=cost, seed=7)
        self.pe_node = n_nodes - 1
        memories = workloads.generate_pages(
            workloads.moldy(n_entities, pages, seed=7))
        self.ents = [
            Entity.create(self.cluster,
                          self.pe_node if i == n_entities - 1
                          else i % self.pe_node, memory)
            for i, memory in enumerate(memories)]
        self.ses = [e.entity_id for e in self.ents[:-1]]
        self.pes = [self.ents[-1].entity_id]
        self.setup()
        self.concord = ConCORD(self.cluster, ConCORDConfig(
            n_represented=3, obs=ObsConfig(trace=True)))
        self.concord.initial_scan()

    def setup(self) -> None:
        """Hook: entities a service needs before bring-up."""

    def go_stale(self, fraction: float = 0.2) -> None:
        """Overwrite part of every entity without telling the DHT."""
        rng = np.random.default_rng(11)
        for e in self.ents:
            e.mutate_random(fraction, rng)

    def scope(self) -> ServiceScope:
        return ServiceScope.of(self.ses, self.pes)


#: What a recipe builds: the world, the service to run in it, the scope
#: to run it over, and ``outcome(result) -> dict`` of what it produced.
Recipe = tuple[World, ServiceCallbacks, ServiceScope,
               Callable[[CommandResult], dict]]


def node_states(result: CommandResult) -> dict:
    return {"states": [(n, dataclasses.astuple(c.state))
                       for n, c in sorted(result.contexts.items())
                       if c.state is not None]}


def ckpt_outcome(world: World, store: CheckpointStore, restore):
    def outcome(result: CommandResult) -> dict:
        sums = [sum(getattr(c.state, f) for c in result.contexts.values()
                    if c.state is not None)
                for f in ("shared_appends", "pointer_records", "data_records")]
        return {
            "shared_blocks_sha256": sha(store.shared.blocks),
            "records_sha256": sha([(eid, f.records) for eid, f
                                   in sorted(store.se_files.items())]),
            "state_sums": dict(zip(CKPT_COUNTERS, sums)),
            "restores_exactly": all(
                bool((restore(e.entity_id) == e.pages).all())
                for e in world.ents if e.entity_id in world.ses),
        }
    return outcome


def null() -> Recipe:
    w = World()
    w.go_stale()
    return w, NullService(), w.scope(), node_states


def checkpoint(world: World | None = None, **options) -> Recipe:
    w = world or World()
    w.go_stale()
    store = CheckpointStore()
    return (w, CollectiveCheckpoint(store, **options), w.scope(),
            ckpt_outcome(w, store, lambda eid: restore_entity(store, eid)))


def incremental() -> Recipe:
    w = World()
    base = CheckpointStore()
    w.concord.execute_command(CollectiveCheckpoint(base), w.scope())
    w.go_stale(0.3)
    w.concord.sync()
    w.go_stale(0.1)
    inc = CheckpointStore()
    return (w, IncrementalCheckpoint(inc, base), w.scope(), ckpt_outcome(
        w, inc, lambda eid: restore_incremental_entity(inc, base, eid)))


def migrate() -> Recipe:
    w = World()
    w.go_stale()
    # Entities 0 and 4 leave node 0 for node 2; everyone else participates.
    return (w, CollectiveMigration(MigrationPlan({0: 2, 4: 2})),
            ServiceScope.of([0, 4], [eid for eid in w.ses + w.pes
                                     if eid not in (0, 4)]), node_states)


def dedup() -> Recipe:
    w = World()
    w.go_stale()
    svc = CollectiveDedup()
    return w, svc, w.scope(), lambda result: {
        "saved_bytes": svc.saved_bytes_total(),
        "merged_pages": svc.merged_pages_total(),
        "merged_sha256": sha([(n, sorted(c.state.merged.items()))
                              for n, c in sorted(result.contexts.items())
                              if c.state is not None])}


def replicate() -> Recipe:
    class WithStores(World):
        def setup(self) -> None:
            self.stores = make_replica_stores(self.cluster, [2, 3], 512)

    w = WithStores()
    w.go_stale()
    return (w, CollectiveReplication(w.concord, 3, w.stores), w.scope(),
            lambda result: {
                **node_states(result),
                "stores_sha256": sha([(n, s.cursor, s.entity.pages.tolist())
                                      for n, s in sorted(w.stores.items())])})


def reconstruct() -> Recipe:
    class WithTarget(World):
        def setup(self) -> None:
            # The stored image is entity 1's memory as of now; the blank
            # target it is rebuilt into lives on node 3.
            self.image = self.ents[1].pages.copy()
            self.target = Entity.create(
                self.cluster, 3, np.zeros(len(self.image), dtype=np.uint64),
                name="target")

    w = WithTarget()
    hashes = page_hashes(w.image)
    backing = CheckpointStore()
    f = backing.se_file(777)
    for idx, (h, cid) in enumerate(zip(hashes.tolist(), w.image.tolist())):
        f.add_data(idx, h, cid)
    descriptor = ImageDescriptor(entity_id=w.target.entity_id, hashes=hashes)
    register_image(w.concord, w.target, descriptor)
    w.go_stale()
    return (w, CollectiveReconstruction(descriptor, backing,
                                        backing_entity_id=777),
            ServiceScope.of([w.target.entity_id],
                            [e.entity_id for e in w.ents]),
            lambda result: {
                **node_states(result),
                "image_rebuilt": bool((w.target.pages == w.image).all())})


#: name -> (recipe, the command modes the service supports).
RECIPES: dict[str, tuple[Callable[[], Recipe], tuple[ExecMode, ...]]] = {
    "null": (null, (INTERACTIVE, BATCH)),
    "checkpoint": (checkpoint, (INTERACTIVE, BATCH)),
    "checkpoint+refine_plan": (lambda: checkpoint(refine_plan=True), (BATCH,)),
    "checkpoint+pfs": (lambda: checkpoint(pfs=ParallelFileSystem()),
                       (INTERACTIVE, BATCH)),
    "checkpoint-wide-66x70": (
        lambda: checkpoint(World(n_nodes=66, n_entities=70, pages=24,
                                 cost="big-cluster")),
        (INTERACTIVE, BATCH)),
    "incremental": (incremental, (INTERACTIVE,)),
    "migrate": (migrate, (INTERACTIVE, BATCH)),
    "dedup": (dedup, (INTERACTIVE, BATCH)),
    "replicate": (replicate, (INTERACTIVE, BATCH)),
    "reconstruct": (reconstruct, (INTERACTIVE, BATCH)),
}


def run(recipe: Recipe, mode: ExecMode) -> dict:
    """Execute one recipe's command and fingerprint everything it decided."""
    world, service, scope, outcome = recipe
    reg = world.concord.metrics()
    before = {c: reg.value(c) for c in CKPT_COUNTERS}
    spans = world.concord.obs.tracer
    spans.clear()
    tracer = CommandTracer()
    result = world.concord.execute_command(service, scope, mode=mode, seed=5,
                                           tracer=tracer)
    stats = dataclasses.asdict(result.stats)
    for key in ("tx_bytes_per_node", "rx_bytes_per_node"):
        stats[key] = {str(n): b for n, b in sorted(stats[key].items())}
    entry = {
        "success": result.success,
        "wall_time": repr(result.wall_time),
        "phases": {name: {f: repr(getattr(p, f))
                          for f in ("wall", "cpu", "comm", "max_node_cpu")}
                   for name, p in result.phases.items()},
        "stats": stats,
        "n_events": len(tracer),
        "events_sha256": sha([(e.kind.value, e.data) for e in tracer]),
        "handled_private_sha256": sha(sorted(result.handled_private.items())),
        # Every node's cpu and comm time in every phase, not only the
        # critical path's that ``phases`` reports.
        "n_spans": len(spans),
        "spans_sha256": sha([(s.name, s.node, s.phase, s.t0, s.t1)
                             for s in spans]),
        "outcome": outcome(result),
    }
    if isinstance(service, CollectiveCheckpoint):
        entry["counters"] = {c: reg.value(c) - before[c]
                             for c in CKPT_COUNTERS}
    world.concord.close()
    return entry


def fingerprint() -> dict[str, dict]:
    """``"recipe/mode"`` -> fingerprint, for every recipe × supported mode."""
    return {f"{name}/{mode.value}": run(build(), mode)
            for name, (build, modes) in RECIPES.items() for mode in modes}


if __name__ == "__main__":
    json.dump(fingerprint(), sys.stdout, indent=1, sort_keys=True)
    print()
