"""ShardPool: an inline map over shards (or tasks) whose results come
back, and fold, in shard order."""

from operator import add

import pytest

from repro.dht.table import LocalDHT
from repro.exec import ShardPool


def n_rows(table, extra=0):
    return table.n_hashes + extra


@pytest.fixture
def shards():
    out = []
    for i in range(4):
        t = LocalDHT(node_id=i)
        for h in range(10 * i + 1):
            t.insert(h + 1, 0)
        out.append(t)
    return out


def test_results_and_fold_in_shard_order(shards):
    pool = ShardPool()
    assert pool.map_shards(shards, n_rows) == [1, 11, 21, 31]
    # A non-commutative fold shows the order it folds in.
    assert pool.map_shards(shards, n_rows, reduce_fn=lambda a, b: a + [b],
                           initial=[]) == [1, 11, 21, 31]
    assert pool.map_shards(shards, n_rows, reduce_fn=add) == 64


def test_args_per_shard(shards):
    pool = ShardPool()
    got = pool.map_shards(shards, n_rows, args_per_shard=[(i,) for i in range(4)])
    assert got == [1, 12, 23, 34]
    with pytest.raises(ValueError):
        pool.map_shards(shards, n_rows, args_per_shard=[(0,)])


def test_run_tasks_in_task_order():
    tasks = [(i, i * 10) for i in range(6)]
    assert ShardPool().run_tasks(add, tasks) == [0, 11, 22, 33, 44, 55]
