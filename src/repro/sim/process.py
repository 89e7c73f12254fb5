"""Periodic processes on top of the event kernel.

Most protocol behaviour in the reproduction is periodic: the BitTorrent
round rechokes every 10 s, BuddyCast gossips on its own interval, and the
measurement harness samples reputations once per simulated hour.
:class:`PeriodicProcess` packages the schedule-fire-reschedule pattern:
each tick schedules the next one ``interval`` seconds later, for as long
as the simulation runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import SimulationError, Simulator

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """A callback fired every ``interval`` simulated seconds.

    Parameters
    ----------
    sim:
        The simulator that owns the clock.
    interval:
        Seconds between consecutive firings; must be positive.
    callback:
        Zero-argument callable invoked on each tick.
    start_delay:
        Delay before the first firing.  If ``None``, the first firing
        happens after one full ``interval``.
    label:
        Event label of every tick (profiler and trace key).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: Optional[float] = None,
        label: str = "",
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._label = label
        self._ticks = 0
        first = self._interval if start_delay is None else float(start_delay)
        sim.schedule(first, self._fire, label)

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def interval(self) -> float:
        """Base period in seconds."""
        return self._interval

    def _fire(self) -> None:
        self._ticks += 1
        self._callback()
        self._sim.schedule(self._interval, self._fire, self._label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PeriodicProcess {self._label!r} every {self._interval}s ticks={self._ticks}>"
