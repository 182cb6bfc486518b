"""The repo benchmark (bench/layers.py) wraps public callables in place via
``vars(holder)[attr]``, so each must stay defined *directly* on its class
or module — not inherited, not generated, not renamed.  It also builds
every system with ``ConCORDConfig(workers=1)`` (bench/workloads.py) and
reads ``ShardPool.parallel`` on every pool call.  A move that breaks any
of that would otherwise only fail in the separate bench-smoke job."""

import pytest

from repro import ConCORDConfig
from repro.exec.pool import ShardPool

layers = pytest.importorskip("bench.layers")


def test_every_shim_target_resolves():
    missing = [f"{getattr(holder, '__name__', holder)}.{target.attr}"
               for target in layers.SPEC
               for holder in target.holders()
               if target.attr not in vars(holder)]
    assert not missing, f"bench/layers.py SPEC targets gone: {missing}"


def test_bench_config_constructs():
    assert ConCORDConfig(workers=1).workers == 1


def test_workers_other_than_1_is_refused_naming_the_field():
    with pytest.raises(ValueError, match=r"ConCORDConfig\.workers="):
        ConCORDConfig(workers=2)


def test_shard_pool_is_never_parallel():
    assert ShardPool().parallel is False
