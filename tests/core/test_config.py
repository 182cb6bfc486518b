"""Tests for the ConCORDConfig value and the facade's construction
contract (configuration only through a config value: kwargs are
``TypeError``)."""

import dataclasses
import re

import numpy as np
import pytest

from repro import Cluster, ConCORD, ConCORDConfig, Entity, MonitorMode


# The quoted values in the ``update_transport`` entry of the docstring.
_DOCUMENTED_TRANSPORTS = re.findall(
    r'``"(\w+)"``',
    ConCORDConfig.__doc__.split("update_transport:")[1].split("workers:")[0])


def small_cluster():
    cluster = Cluster(2, seed=0)
    Entity.create(cluster, 0, np.arange(16, dtype=np.uint64))
    return cluster


class TestConfigValue:
    def test_defaults(self):
        cfg = ConCORDConfig()
        assert cfg.use_network is False
        assert cfg.monitor_mode is MonitorMode.PERIODIC_SCAN
        assert cfg.hash_algo == "sfh"
        assert cfg.throttle_updates_per_s is None
        assert cfg.n_represented == 1
        assert cfg.update_batch_size is None
        assert cfg.update_transport == "udp"

    def test_frozen(self):
        cfg = ConCORDConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.use_network = True

    def test_replace_returns_new_value(self):
        cfg = ConCORDConfig()
        cfg2 = cfg.replace(use_network=True, n_represented=4)
        assert cfg2.use_network is True and cfg2.n_represented == 4
        assert cfg.use_network is False            # original untouched
        assert cfg2.hash_algo == cfg.hash_algo

    def test_hashable_and_comparable(self):
        assert ConCORDConfig() == ConCORDConfig()
        assert len({ConCORDConfig(), ConCORDConfig()}) == 1
        assert ConCORDConfig(use_network=True) != ConCORDConfig()

    @pytest.mark.parametrize("field, value", [
        ("n_represented", 0),
        ("update_batch_size", 0),
        ("throttle_updates_per_s", -1.0),
        ("throttle_updates_per_s", 0.0),
        ("workers", 0),
        ("workers", 2),
        ("workers", True),
        ("hash_algo", "sha1"),
        ("update_transport", "tcp"),
        ("placement", "ring"),
        ("chunking", "lz4"),
    ])
    def test_invalid_value_rejected_at_construction(self, field, value):
        """A bad value fails where it is written, naming its field — not
        at the first scan, or silently as a zero cost."""
        with pytest.raises(ValueError, match=rf"ConCORDConfig\.{field}="):
            ConCORDConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"ConCORDConfig\.{field}="):
            ConCORDConfig().replace(**{field: value})

    def test_every_valid_choice_accepted(self):
        ConCORDConfig(hash_algo="md5", update_transport="rdma",
                      placement="hd", chunking="cdc", workers=1,
                      update_batch_size=1, throttle_updates_per_s=0.5)


class TestFacadeConstruction:
    def test_config_is_stored(self):
        cfg = ConCORDConfig(use_network=True, update_batch_size=16)
        concord = ConCORD(small_cluster(), cfg)
        assert concord.config is cfg
        assert concord.tracing.use_network is True
        assert concord.tracing.batch_size == 16

    def test_default_config_when_omitted(self):
        concord = ConCORD(small_cluster())
        assert concord.config == ConCORDConfig()

    @pytest.mark.parametrize("kwarg", ["use_network", "use_netwrk"])
    def test_config_kwargs_raise_type_error(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            ConCORD(small_cluster(), ConCORDConfig(), **{kwarg: True})

    def test_no_warning_for_plain_config(self, recwarn):
        ConCORD(small_cluster(), ConCORDConfig(use_network=True))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    @pytest.mark.parametrize("value", [*_DOCUMENTED_TRANSPORTS, "reliable"])
    def test_update_transport_accepts_what_the_docstring_lists(self, value):
        if value in _DOCUMENTED_TRANSPORTS:
            cfg = ConCORDConfig(update_transport=value)
            concord = ConCORD(small_cluster(), cfg)
            assert concord.tracing.transport == value
        else:
            # The error names the valid values, the documented ones.
            assert _DOCUMENTED_TRANSPORTS
            with pytest.raises(ValueError,
                               match=", ".join(_DOCUMENTED_TRANSPORTS)):
                ConCORDConfig(update_transport=value)

    def test_context_manager_closes(self):
        with ConCORD(small_cluster()) as concord:
            assert concord._closed is False
        assert concord._closed is True
        concord.close()  # idempotent
