"""The metrics registry: counters and gauges a finished run publishes.

A :class:`MetricsRegistry` is a flat namespace of named scalars:

* :class:`Counter` — monotonically increasing totals (messages sent,
  bytes moved, records applied);
* :class:`Gauge` — per-run telemetry taken at the end of a run (the
  reputation cache's totals, maxflow kernel invocations).

Components count once
---------------------
Every number here is kept, always on, by the component that owns it — a
plain ``int`` or ``float`` attribute (``node.messages_sent``,
``channel.dropped``, ``sim.bytes_moved``; DESIGN.md §7 has the table).
No hot path touches the registry: :meth:`CommunitySimulator.publish
<repro.bittorrent.simulator.CommunitySimulator.publish>`, which ``run()``
ends with, writes each count under its name through
:meth:`MetricsRegistry.publish`.  The disabled default is
:data:`NULL_METRICS`, whose ``publish`` does nothing.  Time is not
measured here: the profiler (:mod:`repro.obs.profile`) is the only clock.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.obs.legs import Leg

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]

class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class MetricsRegistry(Leg):
    """A flat, lazily populated namespace of counters and gauges.

    Instruments are created on first access and memoized; re-requesting a
    name returns the same instance, and requesting an existing name as a
    different instrument type raises ``TypeError``.  Nothing on a hot
    path writes here: the components count in their own attributes and a
    finished run :meth:`publish`-es them.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def publish(
        self,
        bases: Dict[str, float],
        counters: Mapping[str, float],
        gauges: Mapping[str, float] = {},
    ) -> None:
        """Write one publisher's running totals under their names.

        Each instrument ends at the value it held before this publisher
        first wrote it (remembered in ``bases``, the publisher's own dict)
        plus the publisher's total, so publishing again — a run resumed
        after ``run(until=t)``, work done on a finished run — adds exactly
        what changed since (publishers sharing a registry run one after
        another, as a serial sweep's tasks do).  A float total arrives as the one sequential
        sum it is, which is what a worker's fresh registry ships home:
        a serial sweep and a merged ``--jobs N`` one read the same bits.
        """
        for kind, totals in ((Counter, counters), (Gauge, gauges)):
            for name, total in totals.items():
                metric = self._get(name, kind)
                metric.value = bases.setdefault(name, metric.value) + total

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def value(self, name: str, default: float = 0.0) -> float:
        """The value of a counter/gauge (or ``default``)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every instrument, keyed by name."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    summary = snapshot

    def render(self) -> str:
        from repro.obs.report import render_metrics_snapshot

        return render_metrics_snapshot(self.summary())

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how the parallel sweep runner keeps metrics truthful
        under multi-process fan-out: each worker runs with its own
        registry and ships the snapshot home with its task result.
        Counters and gauges both add: a gauge holds per-run totals
        (``rep.cache.*``, ``rep.kernel.*``), so summing matches the serial
        accumulation.  Instruments are created on demand, so merging into
        a fresh registry reconstructs the full namespace.  Names are
        merged in sorted order, making the result independent of worker
        completion order; unknown instrument types are skipped.
        """
        for name in sorted(snapshot):
            snap = snapshot[name]
            kind = {"counter": Counter, "gauge": Gauge}.get(snap.get("type"))
            if kind is not None:
                self._get(name, kind).inc(float(snap.get("value") or 0.0))

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: publishing and merging record nothing."""

    enabled = False

    def publish(self, bases, counters, gauges={}) -> None:
        pass

    def merge(self, snapshot: Dict[str, dict]) -> None:
        pass

    def render(self) -> str:
        return "== Metrics ==\n(observability disabled; run with --metrics)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullMetricsRegistry>"


#: Shared disabled registry — the default everywhere.
NULL_METRICS = NullMetricsRegistry()
