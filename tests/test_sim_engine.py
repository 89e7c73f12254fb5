"""Unit tests for the discrete-event kernel."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from tests import model


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_relative(self):
        sim = Simulator()
        seen = []
        sim.run_until(2.0)
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_absolute(self):
        sim = Simulator()
        seen = []
        sim.run_until(10.0)
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.0, lambda: None)

    def test_schedule_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_nonfinite_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_schedule_at_current_time_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]


class TestExecution:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_with_empty_queue(self):
        sim = Simulator()
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_until_nan_raises(self):
        # NaN compares false both ways: unchecked, it fires every event
        # and never stops on time.
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        with pytest.raises(SimulationError):
            sim.run_until(math.nan)
        assert fired == [] and sim.now == 0.0

    def test_run_until_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == [True]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_fired == 4

    def test_run_returns_count(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run() == 3

    def test_reentrant_run_raises(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


# Few distinct times and delays, zero included, so ties are the common case:
# between roots, between a child and the events already queued at its time.
times = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0])
delays = st.sampled_from([0.0, 0.0, 1.0, 2.5])
child = st.tuples(delays, st.lists(st.tuples(delays, st.just([])), max_size=2))
schedules = st.lists(st.tuples(times, st.lists(child, max_size=2)), max_size=12)


class TestOrdering:
    @settings(max_examples=200, deadline=None)
    @given(roots=schedules, horizon=st.sampled_from([0.0, 1.0, 2.0, 3.5, 6.0]))
    def test_fires_in_time_then_insertion_order(self, roots, horizon):
        sim = Simulator()
        fired = []

        def schedule(delay, children, index):
            def fire():
                fired.append(index)
                for d, grandchildren in children:
                    schedule(d, grandchildren, next(indices))

            sim.schedule(delay, fire, label=f"e{index}")

        indices = itertools.count()
        for time, children in roots:
            schedule(time, children, next(indices))
        order = model.fire_order(roots)

        n = sim.run_until(horizon)
        expected = [i for t, i in order if t <= horizon]
        assert fired == expected
        assert n == sim.events_fired == len(expected)
        assert sim.now == horizon

        assert sim.run() == len(order) - n
        assert fired == [i for _, i in order]
        assert sim.events_fired == len(order)
        assert sim.now == max([horizon] + [t for t, _ in order])
