#!/usr/bin/env python3
"""Writing your own content-aware service command: a content audit.

The paper's pitch is that an application service is "a parametrization of
a single general query" — you write node-local callbacks, ConCORD runs
them with parallelism, replica selection, retry, and correctness handled
for you.  Collective checkpointing took ~230 lines of C; this audit
service takes ~60 lines of Python.

The service scans memory for blacklisted content (think malware
signatures or leaked-secret detection).  The redundancy win: each
*distinct* block is deep-scanned once in the collective phase, no matter
how many entities hold copies; the local phase then attributes hits to
every entity holding a flagged block — including content the DHT missed.

Run:  python examples/custom_service_content_audit.py
"""

from dataclasses import dataclass, field

import numpy as np

from repro import (
    Cluster,
    ConCORD,
    ServiceCallbacks,
    ServiceScope,
    workloads,
)
from repro.util.stats import fmt_time_s


@dataclass
class AuditState:
    deep_scans: int = 0                      # expensive signature scans run
    hits: dict = field(default_factory=dict)  # entity -> flagged page idxs


class ContentAuditService(ServiceCallbacks):
    """Flag every page whose content matches a blacklist — scanning each
    distinct block exactly once."""

    name = "content-audit"

    def __init__(self, blacklist: set[int]) -> None:
        self.blacklist = blacklist  # content IDs considered bad

    def service_init(self, ctx, config):
        ctx.state = AuditState()

    def collective_command(self, ctx, entity, content_hash, block):
        # The expensive part: deep-scan the block (signature matching).
        content = ctx.read_block(block)
        ctx.charge_per_block(ctx.cost.page_touch * 4)  # 4x a plain touch
        ctx.state.deep_scans += 1
        return bool(content in self.blacklist)  # private data = verdict

    def local_command(self, ctx, entity, page_idx, content_hash, block,
                      handled_private):
        if handled_private is None:
            # Content ConCORD didn't know: deep-scan it now (correctness).
            flagged = entity.read_page(page_idx) in self.blacklist
            ctx.charge_per_block(ctx.cost.page_touch * 4)
            ctx.state.deep_scans += 1
        else:
            flagged = handled_private is True
        if flagged:
            ctx.state.hits.setdefault(entity.entity_id, []).append(page_idx)


def main() -> None:
    cluster = Cluster(8, cost="new-cluster", seed=41)
    entities = workloads.instantiate(cluster, workloads.moldy(8, 2048, seed=41))
    eids = [e.entity_id for e in entities]
    with ConCORD(cluster) as concord:
        concord.initial_scan()

        # Blacklist a few content IDs that actually occur (one from the
        # shared pool, so many entities hold it).
        rng = np.random.default_rng(42)
        bad = {int(entities[0].read_page(5)), int(entities[3].read_page(100))}
        # Plant one *after* the scan, so the DHT doesn't know about it.
        entities[1].write_page(7, 0xBAD0BAD0)
        bad.add(0xBAD0BAD0)

        svc = ContentAuditService(bad)
        result = concord.execute_command(svc, ServiceScope.of(eids))

    total_pages = sum(e.n_pages for e in entities)
    deep = sum(c.state.deep_scans for c in result.contexts.values()
               if c.state)
    print(f"audited {total_pages} pages across {len(entities)} processes in "
          f"{fmt_time_s(result.wall_time)} (simulated)")
    print(f"deep scans actually run: {deep} "
          f"({deep / total_pages:.1%} of a naive per-page audit — "
          f"redundancy did the rest)")

    print("\nflagged pages:")
    all_hits = {}
    for ctx in result.contexts.values():
        if ctx.state:
            for eid, idxs in ctx.state.hits.items():
                all_hits.setdefault(eid, []).extend(idxs)
    for eid in sorted(all_hits):
        entity = cluster.entity(eid)
        print(f"  {entity.name} (node {entity.node_id}): "
              f"{len(all_hits[eid])} pages, e.g. {sorted(all_hits[eid])[:5]}")

    # Verify against a brute-force audit.
    expect = {}
    for e in entities:
        idxs = [i for i in range(e.n_pages) if int(e.read_page(i)) in bad]
        if idxs:
            expect[e.entity_id] = sorted(idxs)
    assert {k: sorted(v) for k, v in all_hits.items()} == expect
    print("\nverified against a brute-force page-by-page audit")
    # The planted post-scan page was caught by the local phase:
    assert 7 in all_hits[entities[1].entity_id]
    print("the secret planted after the last scan was still caught "
          "(local-phase correctness)")


if __name__ == "__main__":
    main()
