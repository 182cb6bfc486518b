"""repro — a reproduction of ConCORD (HPDC 2014).

ConCORD factors memory content-tracking across the nodes of a parallel
machine into a distinct platform service, and implements application
services as parametrizations of a single general query: the content-aware
service command.

Quickstart::

    from repro import (Cluster, ConCORD, ServiceScope, CollectiveCheckpoint,
                       CheckpointStore, restore_entity, workloads)

    cluster = Cluster(n_nodes=4, cost="new-cluster")
    entities = workloads.instantiate(cluster, workloads.moldy(4, 2048))
    with ConCORD(cluster) as concord:
        concord.initial_scan()

        print(concord.sharing([e.entity_id for e in entities]).value)

        store = CheckpointStore()
        result = concord.execute_command(
            CollectiveCheckpoint(store),
            ServiceScope.of([e.entity_id for e in entities]))
    assert (restore_entity(store, entities[0].entity_id)
            == entities[0].pages).all()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro import analysis, workloads
from repro.core import (
    CommandFailed,
    CommandResult,
    ConCORD,
    ConCORDConfig,
    EntityRole,
    ExecMode,
    ServiceCallbacks,
    ServiceScope,
)
from repro.dht.repair import RepairReport
from repro.dht.storage import BACKENDS, StorageConfig
from repro.memory import (Entity, EntityKind, MonitorMode,
                          VirtualMachine)
from repro.obs import (MetricsRegistry, Observability, ObsConfig, SpanTracer,
                       capture_traces, validate_chrome_trace)
from repro.services import (
    CheckpointStore,
    CollectiveCheckpoint,
    CollectiveDedup,
    CollectiveMigration,
    CollectiveReconstruction,
    CollectiveReplication,
    IncrementalCheckpoint,
    NullService,
    RawCheckpoint,
    restore_entity,
    restore_incremental_entity,
)
from repro.sim import (BIG_CLUSTER, NEW_CLUSTER, OLD_CLUSTER, Cluster,
                       CostModel, FaultPlan)
from repro.storage import ParallelFileSystem, RamDisk

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "CostModel",
    "OLD_CLUSTER",
    "NEW_CLUSTER",
    "BIG_CLUSTER",
    "Entity",
    "EntityKind",
    "MonitorMode",
    "ConCORD",
    "ConCORDConfig",
    "StorageConfig",
    "BACKENDS",
    "ObsConfig",
    "Observability",
    "MetricsRegistry",
    "SpanTracer",
    "capture_traces",
    "validate_chrome_trace",
    "FaultPlan",
    "RepairReport",
    "ServiceCallbacks",
    "ServiceScope",
    "EntityRole",
    "ExecMode",
    "CommandFailed",
    "CommandResult",
    "NullService",
    "CheckpointStore",
    "CollectiveCheckpoint",
    "RawCheckpoint",
    "restore_entity",
    "CollectiveReconstruction",
    "CollectiveMigration",
    "CollectiveDedup",
    "CollectiveReplication",
    "IncrementalCheckpoint",
    "restore_incremental_entity",
    "workloads",
    "analysis",
    "VirtualMachine",
    "ParallelFileSystem",
    "RamDisk",
    "__version__",
]
