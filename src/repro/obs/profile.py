"""Nestable phase/event/evaluation profiling with deterministic overhead.

The profiler answers "where does wall-clock go inside a run?" without
perturbing the run itself: it never touches a simulation RNG stream, and
every hook is guarded by a cached ``None`` check so a disabled profiler
costs one attribute load per instrumented block (the same discipline as
the tracer).

Three observation surfaces, all reached through the
:class:`~repro.obs.Observability` bundle the component was built with:

* :meth:`Profiler.phase` — a nestable context manager for coarse phases
  (``bt.round`` / ``choke`` / ``transfer`` / ``gossip``).  Phases
  aggregate per slash-joined path (``bt.round/choke``) with wall + CPU
  time and *self* wall (wall minus time attributed to child phases), and
  feed a bounded span log for Chrome-trace export
  (:mod:`repro.obs.chrome_trace`).
* :meth:`Profiler.observe_event` — allocation-free per-label aggregation
  for the engine's event dispatch loop (thousands of events per run; a
  span each would swamp the log).
* :meth:`Profiler.observe_kernel` — the same aggregation for reputation
  evaluations, timed by the node where it computes them
  (:class:`~repro.core.node.BarterCastNode`) and labelled
  ``<engine>.scalar`` / ``<engine>.batch``, so every engine is costed
  alike and the counts sum to the ``rep.kernel.calls`` metric.

Snapshots are JSON-safe dicts; :meth:`Profiler.merge` folds a worker's
snapshot into the parent in task order, so a ``--jobs N`` sweep reports
fleet-wide totals.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.legs import Leg

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
]

#: Span-log cap: at ~4 phases per round a week-long paper run stays well
#: under this; beyond it spans are counted but dropped (aggregates are
#: unaffected).
DEFAULT_MAX_SPANS = 32768


class _Agg:
    """One aggregation cell (a phase path, an event or evaluation label)."""

    __slots__ = ("count", "wall", "cpu", "self_wall", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.self_wall = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, wall: float, cpu: float, self_wall: float) -> None:
        self.count += 1
        self.wall += wall
        self.cpu += cpu
        self.self_wall += self_wall
        if wall < self.min:
            self.min = wall
        if wall > self.max:
            self.max = wall

    def merge(self, snap: dict) -> None:
        count = int(snap.get("count") or 0)
        if count <= 0:
            return
        self.count += count
        self.wall += float(snap.get("wall_s") or 0.0)
        self.cpu += float(snap.get("cpu_s") or 0.0)
        self.self_wall += float(snap.get("self_wall_s") or 0.0)
        lo, hi = snap.get("min_s"), snap.get("max_s")
        if lo is not None and lo < self.min:
            self.min = float(lo)
        if hi is not None and hi > self.max:
            self.max = float(hi)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "self_wall_s": self.self_wall,
            "min_s": self.min if self.count else None,
            "max_s": self.max if self.count else None,
        }


def _observe(table: Dict[str, _Agg], label: str, duration: float) -> None:
    agg = table.get(label)
    if agg is None:
        agg = table[label] = _Agg()
    agg.add(duration, 0.0, duration)


class _Phase:
    """Stack frame for one :meth:`Profiler.phase` activation."""

    __slots__ = ("_profiler", "name", "path", "depth", "t0", "c0", "child_wall")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self.name = name
        self.path = name
        self.depth = 0
        self.t0 = 0.0
        self.c0 = 0.0
        self.child_wall = 0.0

    def __enter__(self) -> "_Phase":
        prof = self._profiler
        stack = prof._stack
        if stack:
            parent = stack[-1]
            self.path = parent.path + "/" + self.name
            self.depth = parent.depth + 1
        stack.append(self)
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        prof = self._profiler
        prof._stack.pop()
        if prof._stack:
            prof._stack[-1].child_wall += wall
        agg = prof._phases.get(self.path)
        if agg is None:
            agg = prof._phases[self.path] = _Agg()
        agg.add(wall, cpu, wall - self.child_wall)
        prof._log_span(self.path, self.depth, self.t0, wall)


class Profiler(Leg):
    """Phase/event/evaluation wall+CPU aggregator with a bounded span log."""

    enabled = True
    note = "profile"

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._stack: List[_Phase] = []
        self._phases: Dict[str, _Agg] = {}
        self._events: Dict[str, _Agg] = {}
        self._kernels: Dict[str, _Agg] = {}
        self._t0 = time.perf_counter()
        self._max_spans = max_spans
        #: ``(path, depth, start_offset_s, dur_s)`` per completed phase,
        #: oldest first, capped at ``max_spans``.
        self.spans: List[tuple] = []
        self.spans_dropped = 0

    # -- observation ---------------------------------------------------

    def phase(self, name: str) -> _Phase:
        """A nestable timing context; ``with profiler.phase("choke"): ...``."""
        return _Phase(self, name)

    def observe_event(self, label: str, duration: float) -> None:
        """Aggregate one engine-dispatch callback (no span log entry)."""
        _observe(self._events, label, duration)

    def observe_kernel(self, label: str, duration: float) -> None:
        """Aggregate one reputation evaluation (no span log entry)."""
        _observe(self._kernels, label, duration)

    def _log_span(self, path: str, depth: int, t0: float, dur: float) -> None:
        if len(self.spans) < self._max_spans:
            self.spans.append((path, depth, t0 - self._t0, dur))
        else:
            self.spans_dropped += 1

    # -- leg lifecycle -------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe aggregate view.  Never the spans: they are bulky, and
        worker span clocks are not comparable across processes."""
        return {
            "phases": {p: a.snapshot() for p, a in sorted(self._phases.items())},
            "events": {l: a.snapshot() for l, a in sorted(self._events.items())},
            "kernels": {l: a.snapshot() for l, a in sorted(self._kernels.items())},
            "spans_dropped": self.spans_dropped,
        }

    #: The run manifest stores the aggregates as they are.
    summary = snapshot

    def merge(self, snap: Optional[dict]) -> None:
        """Fold a worker's :meth:`snapshot` into this profiler (call in
        task order: the float sums are then those of a serial run)."""
        if not snap:
            return
        for section, table in (
            ("phases", self._phases),
            ("events", self._events),
            ("kernels", self._kernels),
        ):
            for label, sub in snap.get(section, {}).items():
                agg = table.get(label)
                if agg is None:
                    agg = table[label] = _Agg()
                agg.merge(sub)
        self.spans_dropped += int(snap.get("spans_dropped") or 0)

    def render(self) -> str:
        from repro.obs.report import render_profile

        return render_profile(self.summary())

    def export(self, directory) -> List[Path]:
        """Phase spans as ``profile_chrome.json`` (Perfetto), if any."""
        if not self.spans:
            return []
        from repro.obs.chrome_trace import write_chrome_trace

        return [
            write_chrome_trace(
                Path(directory) / "profile_chrome.json", profile_spans=self.spans
            )
        ]


class NullProfiler(Profiler):
    """Disabled profiler: every hook is a no-op, snapshots are empty."""

    enabled = False

    def phase(self, name: str):  # pragma: no cover - trivial
        raise RuntimeError(
            "NullProfiler.phase called; guard call sites with profiler.enabled"
        )

    def observe_event(self, label: str, duration: float) -> None:
        pass

    def observe_kernel(self, label: str, duration: float) -> None:
        pass


#: Shared disabled profiler (the :data:`repro.obs.NULL_OBS` leg).
NULL_PROFILER = NullProfiler()
