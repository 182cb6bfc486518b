"""Shared fixtures: small clusters with workloads and a synced ConCORD."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro import Cluster, ConCORD, ConCORDConfig, workloads

# Hypothesis profiles, chosen by HYPOTHESIS_PROFILE: "deep" runs every
# property that takes its example count from the profile (no
# max_examples of its own) at 1 000 examples, the system state machine
# (tests/properties/machine.py, a fifth of the profile's count) at 200
# schedules and its focused runs (a hundredth) at 10; CI's mmap leg runs
# the write-path oracle (tests/properties/test_props_writelog.py), the
# collective-phase oracle (tests/core/test_collective_batch.py), the
# checkpoint-file oracle (tests/properties/test_props_ckpt_columns.py),
# the changed-only readers' oracles
# (tests/properties/test_props_changed_only.py) and the state machine
# that way.
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def shard_states(engine) -> list[tuple]:
    """Every shard of a tracing engine as plain values: its sorted
    hashes, low masks, wide spill, overflow entries and counters — equal
    exactly when the shards are byte-identical."""
    mask = (1 << 80) - 1
    out = []
    for shard in engine.shards:
        hs, lo, wide = shard.se_scan(mask)
        out.append((hs.tolist(), lo.tolist(), wide,
                    dict(shard.extra_items()),
                    shard.n_hashes, shard.n_copies))
    return out


#: The regions of a shard's generation file (docs/STORAGE.md), in order:
#: the nine header words, the five columns, the wide spill.
GEN_FILE_REGIONS = ("magic", "gen", "n_rows", "n_extra", "n_hashes",
                    "n_copies", "epoch", "spill_len", "crc",
                    "hashes", "masks", "extra_hashes", "extra_entities",
                    "extra_counts", "wide_spill")


def gen_file_offset(path, region: str) -> int:
    """Offset of a byte in the middle of one region of a generation file,
    read off its header; fails if that region holds no byte."""
    head = np.fromfile(path, dtype="<u8", count=9).tolist()
    n, x, spill = head[2], head[3], head[7]
    sizes = [8] * 9 + [8 * n] * 2 + [8 * x] * 3 + [spill]
    i = GEN_FILE_REGIONS.index(region)
    assert sizes[i], f"{path} has an empty {region} region"
    return sum(sizes[:i]) + sizes[i] // 2


def flip_byte(path, offset: int) -> None:
    """Invert every bit of one byte of a file, in place."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([b ^ 0xFF]))


def append_records(f, records) -> None:
    """Append ``(kind, page_idx, hash, payload)`` tuples to an SE
    checkpoint file as one column append: kind names become codes, and a
    ``bptr`` payload goes to the side table (its column holds 0)."""
    from repro.services.checkpoint import _KINDS

    records = list(records)
    f.append_columns([_KINDS.index(r[0]) for r in records],
                     [r[1] for r in records], [r[2] for r in records],
                     [0 if r[0] == "bptr" else r[3] for r in records],
                     {i: r[3] for i, r in enumerate(records)
                      if r[0] == "bptr"})
