"""The discrete-event simulator core.

A :class:`Simulator` owns a clock and a priority queue of :class:`Event`
objects.  Client code schedules callbacks at absolute or relative simulated
times and then drives the simulation with :meth:`Simulator.run`,
:meth:`Simulator.run_until`, or :meth:`Simulator.step`.

Design notes
------------
The queue is a binary heap keyed on ``(time, sequence)`` where ``sequence``
is a monotonically increasing insertion counter.  This makes event ordering
*total* and *deterministic*: two events scheduled for the same instant fire
in the order they were scheduled, independent of callback identity, which is
essential for reproducible trace-based experiments.

Cancellation is handled by tombstoning: ``Event.cancel()`` marks the event
dead and the main loop skips dead events when they surface.  This is O(1)
per cancellation and keeps the heap operations simple.  To bound memory on
cancel-heavy workloads, the simulator counts live tombstones and compacts
the heap (filter + ``heapify``) whenever dead events outnumber live ones
and the queue is non-trivially sized; compaction preserves the
``(time, seq)`` total order exactly, so firing order is unaffected.

Observability: the simulator counts dispatched callbacks itself
(:attr:`Simulator.events_fired`, published as ``sim.events`` by the run
that owns it).  Pass an :class:`~repro.obs.Observability` bundle to time
each dispatch per event label in the profiler and to emit sampled
per-dispatch trace events (category ``sim.event``, carrying the event
label and simulated time).  With the default :data:`~repro.obs.NULL_OBS`
the dispatch loop takes a separate uninstrumented branch whose only cost
is one attribute check per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.obs import NULL_OBS, Observability

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation kernel.

    Examples: scheduling an event in the simulated past, or re-entrantly
    calling :meth:`Simulator.run` from inside an event callback.
    """


@dataclass(order=False)
class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code normally only keeps a handle to
    be able to :meth:`cancel` the event.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    seq:
        Insertion-order tiebreaker; unique per simulator.
    callback:
        A zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag, used in ``repr`` and error messages.
    """

    time: float
    seq: int
    callback: Callable[[], None]
    label: str = ""
    _cancelled: bool = field(default=False, repr=False)
    _on_cancel: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def cancel(self) -> None:
        """Mark this event dead; it will be skipped when it surfaces."""
        if not self._cancelled:
            self._cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        state = " cancelled" if self._cancelled else ""
        return f"<Event t={self.time:.3f}{tag}{state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (seconds).  Defaults to 0.
    obs:
        Observability bundle; the disabled default adds no dispatch
        instrumentation.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    #: Queues smaller than this are never compacted — the rebuild would
    #: cost more than the tombstones' memory is worth.
    COMPACT_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0, obs: Optional[Observability] = None) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._running = False
        self._events_fired = 0
        self._tombstones = 0
        self._compactions = 0
        self.obs = obs if obs is not None else NULL_OBS
        tracer = self.obs.tracer
        self._tr_event = tracer.category("sim.event") if tracer.enabled else None
        profiler = self.obs.profiler
        self._profiler = profiler if profiler.enabled else None
        self._instrumented = self._tr_event is not None or self._profiler is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, ev in self._queue if not ev.cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_dead_head()
        if not self._queue:
            return None
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.
        """
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
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
        event = Event(
            time=float(time),
            seq=next(self._counter),
            callback=callback,
            label=label,
            _on_cancel=self._note_cancel,
        )
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event.

        Returns ``True`` if an event fired, ``False`` if the queue was empty.
        """
        self._drop_dead_head()
        if not self._queue:
            return False
        time, _, event = heapq.heappop(self._queue)
        self._now = time
        self._events_fired += 1
        if self._instrumented:
            self._dispatch_instrumented(event)
        else:
            event.callback()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` callbacks fired).

        Returns the number of events fired by this call.
        """
        return self._loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Run all events with ``time <= until`` and advance the clock to ``until``.

        The clock is left at exactly ``until`` even if the queue drains
        earlier, so periodic measurement code can rely on the final time.
        Returns the number of events fired by this call.
        """
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards: until={until} < now={self._now}"
            )
        fired = self._loop(until=until, max_events=max_events)
        if self._now < until:
            self._now = until
        return fired

    def _loop(self, until: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        fired = 0
        instrumented = self._instrumented
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                self._drop_dead_head()
                if not self._queue:
                    break
                if until is not None and self._queue[0][0] > until:
                    break
                time, _, event = heapq.heappop(self._queue)
                self._now = time
                self._events_fired += 1
                if instrumented:
                    self._dispatch_instrumented(event)
                else:
                    event.callback()
                fired += 1
        finally:
            self._running = False
        return fired

    def _dispatch_instrumented(self, event: Event) -> None:
        """Dispatch one callback with trace/profile instrumentation."""
        prof = self._profiler
        if prof is not None:
            t0 = _time.perf_counter()
            event.callback()
            prof.observe_event(event.label or "event", _time.perf_counter() - t0)
        else:
            event.callback()
        cat = self._tr_event
        if cat is not None:
            cat.emit(event.label or "event", sim_time=self._now)

    def _drop_dead_head(self) -> None:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            if self._tombstones > 0:
                self._tombstones -= 1

    # ------------------------------------------------------------------
    # Tombstone compaction
    # ------------------------------------------------------------------
    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (diagnostics)."""
        return self._compactions

    def _note_cancel(self) -> None:
        """Cancel hook installed on every scheduled event.

        Counts the tombstone and compacts the heap once dead events
        outnumber live ones, so a long cancel-heavy run holds O(live)
        memory instead of O(cancelled).
        """
        self._tombstones += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_QUEUE
            and self._tombstones * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        ``heapify`` over the same ``(time, seq, event)`` tuples restores
        an equivalent heap — the comparison key is untouched — so event
        firing order is bit-identical with or without compaction.
        """
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Debugging helpers
    # ------------------------------------------------------------------
    def pending(self) -> Iterator[Event]:
        """Iterate over live queued events in heap (not firing) order."""
        return (ev for _, _, ev in self._queue if not ev.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f} queued={len(self)} fired={self._events_fired}>"
