"""Picklability audit of everything the pool ships across processes.

Workers receive kernel functions, shard generations, and plain-data args by
pickle; benchmark specs must survive it too so a spawn-method pool (or a
future remote runner) can execute them.  A closure sneaking into any of
these objects fails here, not in a worker traceback.
"""

import pickle

import numpy as np

from repro.core.config import ConCORDConfig
from repro.dht.partition import Partition
from repro.exec import ops
from repro.harness.benchsuite import build_default_runner
from repro.serve.config import ServeConfig
from tests.exec.test_shardpool import make_table


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestConfigsPickle:
    def test_concord_config(self):
        cfg = ConCORDConfig(n_represented=128, workers=4)
        got = roundtrip(cfg)
        assert got.workers == 4 and got.n_represented == 128

    def test_serve_config(self):
        cfg = ServeConfig(cache_capacity=0, verify_cache=True)
        got = roundtrip(cfg)
        assert got == cfg


class TestShardColumnsPickle:
    def test_inline_view(self):
        t = make_table()
        gen = roundtrip(t.generation())
        assert gen.n_hashes == t.n_hashes
        assert np.array_equal(gen.se_scan(255)[0], t.se_scan(255)[0])

    def test_file_backed_view(self, tmp_path):
        t = make_table()
        gen = t.generation().save(str(tmp_path / "s.seg"))
        # Arrays live in the segment file, not the pickle: a shipped
        # file-backed generation stays O(1) no matter the shard size.
        assert len(pickle.dumps(gen)) < 4096
        got = roundtrip(gen)
        assert got.n_hashes == t.n_hashes
        assert np.array_equal(got.se_scan(255)[0], t.se_scan(255)[0])


class TestKernelsPickle:
    def test_every_ops_kernel_pickles_by_reference(self):
        for name in ops.__all__:
            obj = getattr(ops, name)
            assert roundtrip(obj) is obj or isinstance(obj, type)

    def test_breakdown_value_pickles(self):
        bd = ops.SharingBreakdown(10, 4, 3, 2)
        assert roundtrip(bd) == bd

    def test_partition_pickles(self):
        part = Partition(8)
        part.set_alive(3, False)
        got = roundtrip(part)
        hs = np.arange(100, dtype=np.uint64)
        assert np.array_equal(got.primary_nodes(hs), part.primary_nodes(hs))
        assert np.array_equal(got.home_nodes(hs), part.home_nodes(hs))


class TestBenchSpecsPickle:
    def test_every_registered_spec_pickles(self):
        runner = build_default_runner()
        for name, spec in runner.specs.items():
            got = roundtrip(spec)
            assert got.name == name and got.params == spec.params
