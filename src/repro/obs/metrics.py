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

:class:`Histogram` — a value distribution with deterministic reservoir
quantiles — lives here for the profiler's per-kernel duration tables.
Nothing in this module consumes the simulation's RNG streams: reservoirs
use a private :class:`random.Random` seeded from the histogram's name.
"""

from __future__ import annotations

import math
import zlib
from random import Random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.legs import Leg

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]

#: Default reservoir capacity for histogram quantiles.
DEFAULT_RESERVOIR_SIZE = 1024


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


class Histogram:
    """A value distribution.

    Quantiles are estimated from a deterministic reservoir sample
    (`Vitter's algorithm R`), seeded from the metric name so repeated
    runs over the same observation sequence give identical snapshots.
    Optional fixed ``bounds`` additionally maintain cumulative bucket
    counts (``count of values <= bound``), which give exact coarse
    quantiles at paper scale without storing samples.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "bounds",
        "bucket_counts",
        "_reservoir",
        "_reservoir_size",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    ) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        if bounds is not None:
            bounds = [float(b) for b in bounds]
            if bounds != sorted(bounds):
                raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1) if bounds is not None else None
        self._reservoir: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._rng = Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.bucket_counts is not None:
            self.bucket_counts[self._bucket_index(value)] += 1
        res = self._reservoir
        if len(res) < self._reservoir_size:
            res.append(value)
        else:
            # Algorithm R: keep each of the first n observations with
            # probability size/n — deterministic via the name-seeded RNG.
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                res[slot] = value

    def _bucket_index(self, value: float) -> int:
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Reservoir-estimated ``q``-quantile (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return float("nan")
        ordered = sorted(self._reservoir)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[idx]

    def snapshot(self, include_reservoir: bool = False) -> dict:
        """JSON-safe summary; ``include_reservoir`` additionally ships
        the raw reservoir sample so a receiving registry can merge
        quantiles (the parallel worker ship-home path).  The default
        stays reservoir-free: manifests and reports only need the
        derived quantiles."""
        out = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.5) if self.count else None,
            "p95": self.quantile(0.95) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
        }
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
            out["bucket_counts"] = list(self.bucket_counts)
        if include_reservoir and self._reservoir:
            out["reservoir"] = list(self._reservoir)
        return out

    def merge_snapshot_dict(self, snap: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        ``count``, ``total``, ``min``, ``max`` and (matching) bucket
        counts merge exactly.  When the snapshot carries its reservoir
        (``snapshot(include_reservoir=True)``), quantiles merge too:
        if both sides' reservoirs are complete samples (every observed
        value present) the reservoirs concatenate — exact, and
        bit-identical to a serial run over the union; otherwise the two
        reservoirs are resampled by weighted sampling without
        replacement (Efraimidis–Spirakis A-Res, each value weighted by
        its side's observations-per-slot) through the name-seeded RNG,
        so the merged estimate is deterministic given merge order.
        Snapshots without a reservoir merge as before: post-merge
        quantiles then reflect only locally observed values.
        """
        merged = int(snap.get("count") or 0)
        if merged <= 0:
            return
        own_count = self.count
        self.count += merged
        self.total += float(snap.get("total") or 0.0)
        if snap.get("min") is not None and snap["min"] < self.min:
            self.min = float(snap["min"])
        if snap.get("max") is not None and snap["max"] > self.max:
            self.max = float(snap["max"])
        if (
            self.bounds is not None
            and snap.get("bounds") == list(self.bounds)
            and snap.get("bucket_counts") is not None
        ):
            for i, c in enumerate(snap["bucket_counts"]):
                self.bucket_counts[i] += int(c)
        reservoir = snap.get("reservoir")
        if reservoir:
            self._merge_reservoir(
                [float(v) for v in reservoir], merged, own_count
            )

    def _merge_reservoir(
        self, incoming: List[float], incoming_count: int, own_count: int
    ) -> None:
        mine = self._reservoir
        size = self._reservoir_size
        if own_count + incoming_count <= size:
            # len(reservoir) == min(count, size), so both sides hold
            # every value they observed: concatenation is the exact
            # union sample.
            mine.extend(incoming)
            return
        # A-Res: key each value by u**(1/w) where w is how many
        # observations each reservoir slot represents, keep the top
        # ``size`` keys.  Deterministic via the name-seeded RNG as long
        # as merges happen in a fixed order (sorted names, task order).
        w_own = own_count / len(mine) if mine else 1.0
        w_in = incoming_count / len(incoming)
        rng = self._rng
        keyed = [(rng.random() ** (1.0 / w_own), v) for v in mine]
        keyed += [(rng.random() ** (1.0 / w_in), v) for v in incoming]
        keyed.sort(key=lambda kv: kv[0], reverse=True)
        self._reservoir = [v for _, v in keyed[:size]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


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
