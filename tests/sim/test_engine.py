"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Resource, SimEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = SimEngine()
        fired = []
        eng.at(2.0, fired.append, "b")
        eng.at(1.0, fired.append, "a")
        eng.at(3.0, fired.append, "c")
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = SimEngine()
        fired = []
        for tag in "abc":
            eng.at(1.0, fired.append, tag)
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_tied_events_never_compare_their_callbacks(self):
        """Heap entries are (time, seq, fn, args) tuples: the unique seq
        must settle every tie before an unorderable fn or args is reached."""
        eng = SimEngine()
        fired = []
        for tag in "abc":
            eng.at(1.0, lambda t, _d: fired.append(t), tag, {})
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_after_relative(self):
        eng = SimEngine()
        times = []
        eng.after(0.5, lambda: times.append(eng.now))
        eng.run()
        assert times == [0.5]

    def test_nested_scheduling(self):
        eng = SimEngine()
        log = []

        def outer():
            log.append(("outer", eng.now))
            eng.after(1.0, inner)

        def inner():
            log.append(("inner", eng.now))

        eng.after(1.0, outer)
        eng.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_past_scheduling_rejected(self):
        eng = SimEngine()
        eng.at(5.0, lambda: eng.at(1.0, lambda: None))
        with pytest.raises(ValueError):
            eng.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().after(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        """NaN is neither before nor after now; it must not slip into
        the heap and fire between ordinary events with ``now`` = NaN."""
        eng = SimEngine()
        fired = []
        eng.at(1.0, fired.append, 1.0)
        eng.at(2.0, fired.append, 2.0)
        for schedule in (eng.at, eng.after):
            with pytest.raises(ValueError, match="nan"):
                schedule(float("nan"), fired.append, "nan")
        assert eng.run() == 2.0
        assert fired == [1.0, 2.0]

    def test_run_until_stops_and_advances_clock(self):
        eng = SimEngine()
        fired = []
        eng.at(1.0, fired.append, 1)
        eng.at(10.0, fired.append, 2)
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        assert eng.pending() == 1
        eng.run()
        assert fired == [1, 2]
        assert eng.pending() == 0

    def test_max_events(self):
        eng = SimEngine()
        fired = []
        for i in range(5):
            eng.at(float(i), fired.append, i)
        eng.run(max_events=2)
        assert fired == [0, 1]

    def test_events_run_counter(self):
        eng = SimEngine()
        eng.at(0.0, lambda: None)
        eng.at(1.0, lambda: None)
        eng.run()
        assert eng.events_run == 2

    def test_determinism(self):
        def build():
            eng = SimEngine()
            out = []
            for i in range(100):
                eng.at((i * 37) % 10 / 10.0, out.append, i)
            eng.run()
            return out

        assert build() == build()


class TestResource:
    def test_idle_starts_immediately(self):
        r = Resource()
        assert r.submit(now=1.0, duration=2.0) == 3.0

    def test_fifo_queueing(self):
        r = Resource()
        r.submit(0.0, 2.0)
        assert r.submit(1.0, 1.0) == 3.0  # waits behind the first job

    def test_gap_resets(self):
        r = Resource()
        r.submit(0.0, 1.0)
        assert r.submit(5.0, 1.0) == 6.0

    def test_backlog(self):
        r = Resource()
        r.submit(0.0, 4.0)
        assert r.backlog(1.0) == 3.0
        assert r.backlog(10.0) == 0.0

    def test_total_busy_accumulates(self):
        r = Resource()
        r.submit(0.0, 1.0)
        r.submit(0.0, 2.0)
        assert r.total_busy == 3.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Resource().submit(0.0, -1.0)

    def test_reset(self):
        r = Resource()
        r.submit(0.0, 1.0)
        r.reset()
        assert r.busy_until == 0.0 and r.total_busy == 0.0
