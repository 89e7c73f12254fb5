"""Measurement: per-peer transfer accounting and time-bucketed series.

The figures need three observables:

* **real behaviour** — total bytes uploaded/downloaded per peer (Figure
  1(b)'s net contribution, Figure 4(a)'s upload − download);
* **download speed over time** — per-bucket average download speed of a
  peer group, where a peer contributes to a bucket only for the time it
  was actually leeching (Figures 2 and 3);
* **reputation over time** — periodic snapshots of system reputations
  (Figure 1(a)), recorded by the experiment drivers through
  :meth:`StatsCollector.record_reputation_sample`.

All counters are NumPy arrays indexed by a dense peer index, so recording
a transfer is O(1) and series extraction is vectorized.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["StatsCollector"]


class StatsCollector:
    """Accumulates transfer and timing statistics for one simulation run.

    Parameters
    ----------
    peer_ids:
        All peers to track (subjects and infrastructure).
    duration:
        Simulation horizon (seconds).
    bucket_seconds:
        Width of the time buckets used for speed series.
    """

    def __init__(
        self,
        peer_ids: Sequence[int],
        duration: float,
        bucket_seconds: float,
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.peer_ids = list(peer_ids)
        self.index = {pid: i for i, pid in enumerate(self.peer_ids)}
        self.duration = float(duration)
        self.bucket_seconds = float(bucket_seconds)
        self.num_buckets = int(-(-duration // bucket_seconds))
        n = len(self.peer_ids)
        self.downloaded = np.zeros((n, self.num_buckets))
        self.uploaded = np.zeros((n, self.num_buckets))
        self.leech_time = np.zeros((n, self.num_buckets))
        #: (time, {peer_id: system reputation}) snapshots.
        self.reputation_samples: List[Tuple[float, Dict[int, float]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bucket_of(self, now: float) -> int:
        """The bucket index containing time ``now`` (clamped to range)."""
        b = int(now / self.bucket_seconds)
        return min(max(b, 0), self.num_buckets - 1)

    def record_transfer(self, uploader: int, downloader: int, nbytes: float, now: float) -> None:
        """Account ``nbytes`` moving from ``uploader`` to ``downloader``."""
        b = self.bucket_of(now)
        self.uploaded[self.index[uploader], b] += nbytes
        self.downloaded[self.index[downloader], b] += nbytes

    def record_leech_time(self, peer: int, seconds: float, now: float) -> None:
        """Account ``seconds`` of active leeching for ``peer`` at ``now``."""
        self.leech_time[self.index[peer], self.bucket_of(now)] += seconds

    def record_reputation_sample(self, now: float, reputations: Dict[int, float]) -> None:
        """Store a snapshot of system reputations at time ``now``."""
        self.reputation_samples.append((now, dict(reputations)))

    def record_cache_telemetry(
        self, hits: int, misses: int, invalidations: int
    ) -> None:
        """Store the run's reputation-cache totals (per-run properties
        below).

        The simulator aggregates the per-node ``rep_cache_*`` counters
        over the whole population at the end of a run, and publishes
        these as the ``rep.cache.*`` gauges.
        """
        self._rep_cache_totals = (int(hits), int(misses), int(invalidations))

    @property
    def rep_cache_hits(self) -> int:
        """Aggregate cache hits of this run."""
        return getattr(self, "_rep_cache_totals", (0, 0, 0))[0]

    @property
    def rep_cache_misses(self) -> int:
        """Aggregate cache misses of this run."""
        return getattr(self, "_rep_cache_totals", (0, 0, 0))[1]

    @property
    def rep_cache_invalidations(self) -> int:
        """Aggregate invalidations of this run."""
        return getattr(self, "_rep_cache_totals", (0, 0, 0))[2]

    def cache_hit_rate(self) -> float:
        """Fraction of reputation lookups served from the cache.

        NaN when no lookups were recorded (e.g. under ``NoPolicy`` the
        choker never consults reputations).
        """
        total = self.rep_cache_hits + self.rep_cache_misses
        if total == 0:
            return float("nan")
        return self.rep_cache_hits / total

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def total_uploaded(self, peer: int) -> float:
        """All bytes ``peer`` uploaded during the run."""
        return float(self.uploaded[self.index[peer]].sum())

    def total_downloaded(self, peer: int) -> float:
        """All bytes ``peer`` downloaded during the run."""
        return float(self.downloaded[self.index[peer]].sum())

    def net_contribution(self, peer: int) -> float:
        """Real upload minus real download (bytes) — the paper's measure of
        a peer's actual behaviour."""
        return self.total_uploaded(peer) - self.total_downloaded(peer)

    # ------------------------------------------------------------------
    # Series
    # ------------------------------------------------------------------
    def bucket_times(self) -> np.ndarray:
        """Bucket midpoints in seconds."""
        return (np.arange(self.num_buckets) + 0.5) * self.bucket_seconds

    def group_speed_series(self, peers: Iterable[int]) -> np.ndarray:
        """Average download speed (bytes/s) of a peer group per bucket.

        A peer contributes to a bucket only if it spent time leeching in
        that bucket; the group value is the mean of the contributing peers'
        individual speeds (bytes downloaded / leech seconds).  Buckets with
        no contributing peer are NaN.
        """
        rows = [self.index[p] for p in peers]
        if not rows:
            return np.full(self.num_buckets, np.nan)
        down = self.downloaded[rows]
        time = self.leech_time[rows]
        with np.errstate(invalid="ignore", divide="ignore"):
            speeds = np.where(time > 0, down / np.maximum(time, 1e-12), np.nan)
        out = np.full(self.num_buckets, np.nan)
        counts = (time > 0).sum(axis=0)
        has = counts > 0
        if has.any():
            out[has] = np.nanmean(speeds[:, has], axis=0)
        return out

    def group_mean_speed(
        self, peers: Iterable[int], t0: float = 0.0, t1: Optional[float] = None
    ) -> float:
        """Aggregate speed of a group over ``[t0, t1)``: total bytes / total
        leech time (bytes/s; NaN if the group never leeched)."""
        if t1 is None:
            t1 = self.duration
        b0 = self.bucket_of(t0)
        b1 = self.bucket_of(max(t0, t1 - 1e-9)) + 1
        rows = [self.index[p] for p in peers]
        if not rows:
            return float("nan")
        down = self.downloaded[rows, b0:b1].sum()
        time = self.leech_time[rows, b0:b1].sum()
        if time <= 0:
            return float("nan")
        return float(down / time)

    def reputation_series(self, peers: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, mean_reputation)`` over the stored snapshots for a group."""
        peers = list(peers)
        times = np.array([t for t, _ in self.reputation_samples])
        means = np.array(
            [
                np.mean([snap[p] for p in peers if p in snap]) if any(p in snap for p in peers) else np.nan
                for _, snap in self.reputation_samples
            ]
        )
        return times, means

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StatsCollector peers={len(self.peer_ids)} buckets={self.num_buckets} "
            f"bytes={self.downloaded.sum():.3e}>"
        )
