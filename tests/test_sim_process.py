"""Unit tests for periodic processes."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_fires_at_multiples_of_interval(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_start_delay_controls_first_tick(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), start_delay=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_tick_counter(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
        sim.run_until(23.0)
        assert len(ticks) == 4

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicProcess(sim, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicProcess(sim, -1.0, lambda: None)

    def test_two_processes_interleave(self):
        sim = Simulator()
        events = []
        PeriodicProcess(sim, 10.0, lambda: events.append("a"))
        PeriodicProcess(sim, 15.0, lambda: events.append("b"))
        sim.run_until(30.0)
        # At t=30 both fire; b's event was scheduled earlier (at t=15) than
        # a's (at t=20), so insertion order puts b first.
        assert events == ["a", "b", "a", "b", "a"]
