"""Discrete-event simulation kernel.

This subpackage provides the scheduling substrate used by every simulator in
the reproduction: the epidemic peer-sampling service, the BarterCast message
exchange, and the piece-level BitTorrent simulator all run as events and
periodic processes on a single :class:`~repro.sim.engine.Simulator` clock.

The kernel is deliberately small and deterministic:

* time is a float number of simulated seconds;
* events with equal timestamps fire in insertion order (stable heap);
* randomness is never drawn from global state — components receive
  :class:`~repro.sim.rng.RngStream` instances derived from a single root
  seed, so a scenario is reproducible bit-for-bit from its seed.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry, RngStream

__all__ = [
    "Simulator",
    "SimulationError",
    "PeriodicProcess",
    "RngRegistry",
    "RngStream",
]
