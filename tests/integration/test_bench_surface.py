"""The repo benchmark (bench/layers.py) wraps public callables in place via
``vars(holder)[attr]``, so each must stay defined *directly* on its class
or module — not inherited, not generated, not renamed.  A move that breaks
that would otherwise only fail in the separate bench-smoke job."""

import pytest

layers = pytest.importorskip("bench.layers")


def test_every_shim_target_resolves():
    missing = [f"{getattr(holder, '__name__', holder)}.{target.attr}"
               for target in layers.SPEC
               for holder in target.holders()
               if target.attr not in vars(holder)]
    assert not missing, f"bench/layers.py SPEC targets gone: {missing}"
