"""Measurement: per-peer transfer accounting and time-bucketed series.

The figures need three observables:

* **real behaviour** — total bytes uploaded/downloaded per peer (Figure
  1(b)'s net contribution, Figure 4(a)'s upload − download);
* **download speed over time** — per-bucket bytes downloaded and time
  spent leeching, per peer, from which the figure drivers derive a
  group's speed (Figures 2 and 3);
* **reputation over time** — periodic snapshots of system reputations
  (Figure 1(a)), recorded by the experiment drivers through
  :meth:`StatsCollector.record_reputation_sample`.

All counters are NumPy arrays indexed by a dense peer index, so recording
a transfer is O(1) and series extraction is vectorized.  Transfers are
recorded once per moving link and round, so the byte cells they touch
are buffered: :meth:`StatsCollector.record_transfer` reads a cell from
its array once and keeps adding to a Python float, the same additions in
the same order as adding to the array cell itself, until a transfer in
another bucket or a reader :meth:`flushes <StatsCollector.flush>` the
buffered cells back.  The arrays are read through properties that flush
first, so no reader sees a stale cell.
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
        self._downloaded = np.zeros((n, self.num_buckets))
        self._uploaded = np.zeros((n, self.num_buckets))
        self.leech_time = np.zeros((n, self.num_buckets))
        # The transfer buffer: ``peer -> running value`` of the cells in
        # bucket ``_bucket`` of the two arrays; ``_now`` is the time of the
        # last transfer, whose bucket is ``_bucket``.
        self._now: Optional[float] = None
        self._bucket = -1
        self._sent: Dict[int, float] = {}
        self._received: Dict[int, float] = {}
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
        """Account ``nbytes`` moving from ``uploader`` to ``downloader``.

        Buffered (module docstring): a transfer in a new bucket flushes
        the cells of the previous one first.
        """
        if now != self._now:
            bucket = self.bucket_of(now)
            if bucket != self._bucket:
                self.flush()
                self._bucket = bucket
            self._now = now
        nbytes = float(nbytes)
        sent = self._sent
        value = sent.get(uploader)
        if value is None:
            value = float(self._uploaded[self.index[uploader], self._bucket])
        sent[uploader] = value + nbytes
        received = self._received
        value = received.get(downloader)
        if value is None:
            value = float(self._downloaded[self.index[downloader], self._bucket])
        received[downloader] = value + nbytes

    def flush(self) -> None:
        """Write the buffered transfer cells into :attr:`uploaded` /
        :attr:`downloaded`."""
        b, index = self._bucket, self.index
        for cells, array in ((self._sent, self._uploaded), (self._received, self._downloaded)):
            for peer, value in cells.items():
                array[index[peer], b] = value
            cells.clear()

    @property
    def uploaded(self) -> np.ndarray:
        """``[peer index, bucket]`` bytes uploaded (flushed first)."""
        self.flush()
        return self._uploaded

    @property
    def downloaded(self) -> np.ndarray:
        """``[peer index, bucket]`` bytes downloaded (flushed first)."""
        self.flush()
        return self._downloaded

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
