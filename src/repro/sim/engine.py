"""The discrete-event simulator core.

A :class:`Simulator` owns a clock and a binary heap of scheduled
callbacks.  Client code schedules callbacks at absolute or relative
simulated times and then drives the simulation with :meth:`Simulator.run`
or :meth:`Simulator.run_until`.

Ordering contract
-----------------
A heap entry is ``(time, seq, callback, label)``, where ``seq`` is a
monotonically increasing insertion counter: it breaks every tie, so a
callback is never compared.  Events fire in ``(time, insertion)`` order —
two events scheduled for the same instant fire in the order they were
scheduled, independent of callback identity — which is what makes a
trace-driven run reproducible.  A scheduled event always fires once the
clock reaches it; nothing is cancelled.  :meth:`Simulator.run_until`
leaves the clock at exactly its horizon.

Observability: the simulator counts dispatched callbacks itself
(:attr:`Simulator.events_fired`, published as ``sim.events`` by the run
that owns it).  Pass an :class:`~repro.obs.Observability` bundle to time
each dispatch per event label in the profiler and to emit sampled
per-dispatch trace events (category ``sim.event``, carrying the event
label and simulated time).  With the default :data:`~repro.obs.NULL_OBS`
the dispatch loop takes an uninstrumented branch whose only cost is one
local check per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from typing import Callable, List, Optional, Tuple

from repro.obs import NULL_OBS, Observability

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation kernel.

    Examples: scheduling an event in the simulated past, running to a
    horizon before the clock, or re-entrantly calling :meth:`Simulator.run`
    from inside an event callback.
    """


class Simulator:
    """A deterministic discrete-event simulator; the clock starts at 0.

    Parameters
    ----------
    obs:
        Observability bundle; the disabled default adds no dispatch
        instrumentation.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None], str]] = []
        self._counter = itertools.count()
        self._running = False
        self._events_fired = 0
        self.obs = obs if obs is not None else NULL_OBS
        tracer = self.obs.tracer
        self._tr_event = tracer.category("sim.event") if tracer.enabled else None
        profiler = self.obs.profiler
        self._profiler = profiler if profiler.enabled else None
        self._instrumented = self._tr_event is not None or self._profiler is not None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.
        """
        self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> None:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies in the simulated past or is not finite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        heapq.heappush(self._queue, (float(time), next(self._counter), callback, label))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run until the queue drains; returns the number of events fired."""
        return self._loop(math.inf)

    def run_until(self, until: float) -> int:
        """Run all events with ``time <= until`` and advance the clock to ``until``.

        The clock is left at exactly ``until`` even if the queue drains
        earlier, so periodic measurement code can rely on the final time.
        Returns the number of events fired by this call.

        Raises
        ------
        SimulationError
            Unless ``until >= now``: a horizon in the past, or NaN.
        """
        if not until >= self._now:
            raise SimulationError(f"cannot run to until={until!r} from now={self._now}")
        fired = self._loop(until)
        if self._now < until:
            self._now = until
        return fired

    def _loop(self, until: float) -> int:
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        queue = self._queue
        instrumented = self._instrumented
        fired = 0
        try:
            while queue and queue[0][0] <= until:
                time, _, callback, label = heapq.heappop(queue)
                self._now = time
                self._events_fired += 1
                if instrumented:
                    self._dispatch_instrumented(callback, label or "event")
                else:
                    callback()
                fired += 1
        finally:
            self._running = False
        return fired

    def _dispatch_instrumented(self, callback: Callable[[], None], label: str) -> None:
        """Dispatch one callback with trace/profile instrumentation."""
        prof = self._profiler
        if prof is not None:
            t0 = _time.perf_counter()
            callback()
            prof.observe_event(label, _time.perf_counter() - t0)
        else:
            callback()
        cat = self._tr_event
        if cat is not None and cat.sample():
            cat.emit_sampled(label, sim_time=self._now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.3f} queued={len(self._queue)} "
            f"fired={self._events_fired}>"
        )
