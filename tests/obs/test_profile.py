"""Unit tests for phase-attributed cProfile sessions."""

import re

import pytest

from repro.obs import NULL_PROFILE, ObsConfig, ProfileSession
from repro.obs.profile import NullProfile


def _busy(n: int = 20_000) -> int:
    return sum(i * i for i in range(n))


class TestProfileSession:
    def test_phases_accumulate_and_switch(self):
        prof = ProfileSession()
        prof.begin_phase("collective")
        _busy()
        prof.begin_phase("local")
        _busy()
        prof.end()
        assert sorted(prof.phases) == ["collective", "local"]
        assert prof.total_time("collective") > 0
        assert prof.total_time("local") > 0

    def test_repeated_phase_aggregates(self):
        prof = ProfileSession()
        for _ in range(2):
            prof.begin_phase("collective")
            _busy()
            prof.end()
        assert prof.phases == ["collective"]

    def test_end_is_idempotent(self):
        prof = ProfileSession()
        prof.begin_phase("p")
        prof.end()
        prof.end()

    def test_hotspots_table(self):
        prof = ProfileSession(top_n=5)
        prof.begin_phase("local")
        _busy()
        prof.end()
        table = prof.hotspots()
        assert table.x_values  # something was profiled
        assert all(x.startswith("local:") for x in table.x_values)
        assert len(table.x_values) <= 5 * len(prof.phases)
        text = table.render()
        assert "tottime_ms" in text and "calls" in text

    def test_collapsed_stacks_format(self):
        prof = ProfileSession()
        prof.begin_phase("collective")
        _busy()
        prof.end()
        folded = prof.collapsed_stacks()
        assert folded
        # Every line: semicolon-joined frames rooted at the phase, then a
        # space and an integer microsecond count (flamegraph.pl format).
        for line in folded.splitlines():
            assert re.fullmatch(r"collective(;[^;]+){1,2} \d+", line), line

    def test_write_artifacts(self, tmp_path):
        prof = ProfileSession()
        prof.begin_phase("p")
        _busy()
        prof.end()
        paths = prof.write(tmp_path, "run")
        assert [p.name for p in paths] == ["run.hotspots.txt",
                                           "run.folded.txt"]
        assert (tmp_path / "run.hotspots.txt").read_text()

    def test_print_stats_text(self):
        prof = ProfileSession()
        prof.begin_phase("p")
        _busy()
        prof.end()
        assert "tottime" in prof.print_stats("p")


class TestNullProfile:
    def test_noop_and_shared(self):
        assert NULL_PROFILE.enabled is False
        NULL_PROFILE.begin_phase("x")
        NULL_PROFILE.end()
        assert isinstance(NULL_PROFILE, NullProfile)

    def test_disabled_profile_makes_only_noop_calls(self, monkeypatch):
        """With profiling off the executor holds the shared
        :data:`NULL_PROFILE`: a null command costs five no-op hook calls
        (4 ``begin_phase`` + 1 ``end``) and never builds a cProfile."""
        import cProfile

        from repro.harness.trace import run_traced_null

        def no_cprofile(*_a, **_kw):
            raise AssertionError("cProfile.Profile built with profile=False")

        calls = []
        monkeypatch.setattr(cProfile, "Profile", no_cprofile)
        monkeypatch.setattr(NullProfile, "begin_phase",
                            lambda self, name: calls.append(name))
        monkeypatch.setattr(NullProfile, "end",
                            lambda self: calls.append("end"))
        _t, result, obs = run_traced_null(obs_config=ObsConfig(profile=False))
        assert result.success
        assert obs.profiler is NULL_PROFILE
        assert calls == ["init", "collective", "local", "teardown", "end"]


class TestExecutorIntegration:
    def _run_null(self, profile: bool):
        from repro.harness.trace import run_traced_null

        _table, result, obs = run_traced_null(
            obs_config=ObsConfig(trace=True, profile=profile))
        return result, obs

    def test_profile_off_by_default(self):
        from repro.harness.trace import run_traced_null

        _t, _r, obs = run_traced_null()
        assert obs.profiler is NULL_PROFILE
        assert not obs.profiling

    def test_executor_phases_attributed(self):
        _result, obs = self._run_null(profile=True)
        assert obs.profiling
        assert set(obs.profiler.phases) == {"init", "collective", "local",
                                            "teardown"}
        # The collective phase does the real work (order selection, DHT
        # scans); its profile must contain executor frames.
        labels = obs.profiler.hotspots("collective").x_values
        assert any("executor.py" in x for x in labels)

    def test_profiler_disabled_after_execute(self):
        """execute() must not leave a cProfile enabled (nesting would
        crash the next command or bench run)."""
        import cProfile

        _result, _obs = self._run_null(profile=True)
        p = cProfile.Profile()
        p.enable()   # raises if another profiler is still active
        p.disable()

    def test_profile_report_requires_enable(self):
        from repro.core.concord import ConCORD
        from repro.sim.cluster import Cluster

        concord = ConCORD(Cluster(2, cost="new-cluster", seed=0))
        with pytest.raises(RuntimeError, match="profile=True"):
            concord.profile_report()
