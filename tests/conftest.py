"""Shared fixtures: small clusters with workloads and a synced ConCORD."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import Cluster, ConCORD, ConCORDConfig, workloads


def load_tool(name: str):
    """Import ``tools/<name>.py`` (not a package) as a module, once."""
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.fixture
def cluster4() -> Cluster:
    return Cluster(n_nodes=4, cost="new-cluster", seed=42)


@pytest.fixture
def moldy4(cluster4):
    """4-node moldy workload, one process per node."""
    return workloads.instantiate(cluster4, workloads.moldy(4, 256, seed=3))


@pytest.fixture
def concord4(cluster4, moldy4) -> ConCORD:
    """ConCORD brought up and fully synced (lossless updates)."""
    c = ConCORD(cluster4, ConCORDConfig(use_network=False))
    c.initial_scan()
    return c


def make_system(n_nodes=4, spec=None, seed=0, use_network=False, **config_kw):
    """(cluster, entities, concord) helper for tests wanting custom shapes."""
    cluster = Cluster(n_nodes=n_nodes, cost="new-cluster", seed=seed)
    if spec is None:
        spec = workloads.moldy(n_nodes, 256, seed=seed)
    entities = workloads.instantiate(cluster, spec)
    concord = ConCORD(cluster, ConCORDConfig(use_network=use_network,
                                             **config_kw))
    concord.initial_scan()
    return cluster, entities, concord
