"""Convergence time-series: ring-buffer sampling of run dynamics.

End-of-run aggregates cannot show *when* subjective reputations converge
toward ground truth; this module records the trajectory.  A
:class:`TimeSeriesRecorder` holds numpy-backed columns in a fixed-size
ring buffer and samples a set of named probe callables at a sim-time
cadence; the community simulator attaches one per run with probes for
reputation coverage, rank-inversion rate vs ground truth, cache hit
rate, and ``net.*`` channel deltas (see
``CommunitySimulator._setup_timeseries``), plus the simulator's gossip
exchange and byte counts when metrics are on.

A :class:`TimeSeriesCollector` is the :class:`~repro.obs.Observability`
leg (a :class:`~repro.obs.legs.LabelledCollector`): it carries the
sampling config, collects one series per task, and exports CSV + JSON
beside the run manifest.

Sampling never consumes a simulation RNG stream and runs on its own
periodic event (or rides the scenario's stats sampler), so enabling it
leaves every simulation result bit-identical (pinned by
``tests/test_timeseries.py``).  The one observable side effect is on
*telemetry itself*: probes that query reputations warm the reputation
cache, so ``rep.cache.*`` hit/miss counters include probe traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs.legs import LabelledCollector

__all__ = [
    "NULL_TIMESERIES",
    "NullTimeSeriesCollector",
    "TIMESERIES_FILENAME",
    "TIMESERIES_SCHEMA",
    "TimeSeriesConfig",
    "TimeSeriesCollector",
    "TimeSeriesRecorder",
]

TIMESERIES_SCHEMA = "bartercast-timeseries/v1"
TIMESERIES_FILENAME = "timeseries.json"

#: Default ring capacity: a paper-profile run (7 days @ 6 h cadence) uses
#: 28 rows; 4096 leaves head-room for second-scale cadences before the
#: ring starts evicting the oldest samples.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class TimeSeriesConfig:
    """Picklable sampling parameters shipped to parallel workers.

    ``interval_s`` is the sim-time cadence in seconds; ``None`` means
    "ride the scenario's stats sample interval" (one time-series row per
    figure sample).  ``capacity`` bounds the ring buffer; overflow evicts
    the oldest rows and counts them in ``samples_dropped``.
    """

    interval_s: Optional[float] = None
    capacity: int = DEFAULT_CAPACITY

    @classmethod
    def of(cls, cadence: float) -> "TimeSeriesConfig":
        """The config a ``--timeseries`` cadence describes: a value
        ``<= 0`` (the bare flag stores ``-1.0``) rides the stats cadence."""
        cadence = float(cadence)
        return cls(interval_s=None if cadence <= 0 else cadence)

    def validate(self, round_interval: float) -> None:
        """Reject a cadence no run can honour: one that is not finite, or
        one below ``round_interval``, so a run holds at most one probe per
        round."""
        interval = self.interval_s
        if interval is not None and not interval < inf:  # NaN included
            raise ValueError(f"time-series cadence must be finite, got {interval}")
        if interval is not None and interval < round_interval:
            raise ValueError(
                f"time-series cadence {interval:g} s is below the round interval "
                f"({round_interval:g} s)"
            )


class TimeSeriesRecorder:
    """Fixed-capacity columnar recorder for one simulation run.

    Register probes (``name -> fn(now) -> float``) before the first
    sample; each :meth:`sample` evaluates every probe once and appends a
    row to the ring.  Columns are float64 numpy arrays.
    """

    def __init__(self, label: str = "run", capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.label = label
        self.capacity = capacity
        #: Free-form JSON-safe tags (e.g. the reputation engine the run
        #: used); included in snapshots only when non-empty, so series
        #: from untagged runs serialize exactly as before.
        self.meta: Dict[str, object] = {}
        self._names: List[str] = []
        self._probes: List[Callable[[float], float]] = []
        self._times = np.zeros(capacity, dtype=np.float64)
        self._data: Optional[np.ndarray] = None
        self._total = 0

    def add_probe(self, name: str, fn: Callable[[float], float]) -> None:
        """Register a named probe; must happen before the first sample."""
        if self._data is not None:
            raise RuntimeError("cannot add probes after sampling started")
        if name in self._names:
            raise ValueError(f"duplicate probe {name!r}")
        self._names.append(name)
        self._probes.append(fn)

    @property
    def samples(self) -> int:
        """Rows currently held (≤ capacity)."""
        return min(self._total, self.capacity)

    @property
    def samples_dropped(self) -> int:
        return max(0, self._total - self.capacity)

    @property
    def last_time(self) -> Optional[float]:
        if self._total == 0:
            return None
        return float(self._times[(self._total - 1) % self.capacity])

    def sample(self, now: float) -> None:
        """Evaluate every probe at sim-time ``now`` and append a row."""
        if self._data is None:
            self._data = np.zeros((self.capacity, len(self._probes)), dtype=np.float64)
        idx = self._total % self.capacity
        self._times[idx] = now
        row = self._data[idx]
        for i, fn in enumerate(self._probes):
            row[i] = float(fn(now))
        self._total += 1

    def _order(self) -> np.ndarray:
        """Indices of held rows in chronological order."""
        n = self.samples
        if self._total <= self.capacity:
            return np.arange(n)
        head = self._total % self.capacity
        return np.concatenate([np.arange(head, self.capacity), np.arange(head)])

    def to_dict(self) -> dict:
        """JSON-safe snapshot (chronological lists per column)."""
        order = self._order()
        series = {}
        if self._data is not None:
            for i, name in enumerate(self._names):
                series[name] = self._data[order, i].tolist()
        out = {
            "schema": TIMESERIES_SCHEMA,
            "label": self.label,
            "columns": list(self._names),
            "t": self._times[order].tolist(),
            "series": series,
            "samples_total": self._total,
            "samples_dropped": self.samples_dropped,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


def _csv_lines(snap: dict) -> List[str]:
    """A :meth:`TimeSeriesRecorder.to_dict` snapshot as CSV lines, header
    first (floats round-trip via ``repr``)."""
    columns = list(snap.get("columns", []))
    series = snap.get("series", {})
    cols = [snap.get("t", [])] + [series.get(name, []) for name in columns]
    return [",".join(["t"] + columns)] + [
        ",".join(repr(float(v)) for v in row) for row in zip(*cols)
    ]


class TimeSeriesCollector(LabelledCollector):
    """The Observability leg: sampling config + one series per run."""

    note = "timeseries"
    config_type = TimeSeriesConfig
    schema = TIMESERIES_SCHEMA
    filename = TIMESERIES_FILENAME
    prefix = "timeseries"

    def summary(self) -> dict:
        """Small JSON-safe digest for the run manifest."""
        entries = []
        for snap in self.series():
            times = snap.get("t", [])
            final = {"t": times[-1]} if times else {}
            for name, values in snap.get("series", {}).items():
                if values:
                    final[name] = values[-1]
            entries.append(
                {
                    "label": snap.get("label"),
                    "samples": len(times),
                    "samples_dropped": snap.get("samples_dropped", 0),
                    "final": final,
                }
            )
        return {"interval_s": self.config.interval_s, "series": entries}

    _csv_lines = staticmethod(_csv_lines)


class NullTimeSeriesCollector(TimeSeriesCollector):
    """Disabled collector: simulators skip recorder setup entirely."""

    enabled = False


#: Shared disabled collector (the :data:`repro.obs.NULL_OBS` leg).
NULL_TIMESERIES = NullTimeSeriesCollector()
