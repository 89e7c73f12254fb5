"""Simulator configuration."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["BitTorrentConfig"]

HOUR = 3600.0


@dataclass(frozen=True)
class BitTorrentConfig:
    """Protocol and engine parameters of the BitTorrent simulator.

    Attributes
    ----------
    round_interval:
        Seconds per simulation round; also the rechoke interval (standard
        BitTorrent rechokes every 10 s).
    regular_slots:
        Tit-for-tat upload slots per peer per swarm (paper: 4–7 total
        slots depending on implementation; we default to 3 regular + 1
        optimistic = 4).
    optimistic_interval:
        Seconds between optimistic-unchoke rotations (standard: 30 s).
    gossip_interval:
        Seconds between a peer's BarterCast exchanges (Tribler's BuddyCast
        connects to a new peer roughly every 15 s; 60 s keeps simulation
        cost down and is ablated).
    seed_time:
        How long a *sharer* seeds a completed file (paper: 10 hours).
    pss_view_size:
        Partial-view bound of the BuddyCast peer sampler.
    sample_interval:
        Seconds between statistics samples (reputation snapshots, speed
        buckets).
    optimistic_every_rounds:
        Optimistic rotation period in rounds (>= 1), derived once at
        construction — the choker reads it on every call.  Not a field:
        the config is frozen (build a changed one with
        :func:`dataclasses.replace`), so it cannot go stale, and it is
        not part of the config's description, equality or repr.

    A config is validated (:meth:`validate`) when it is built.
    """

    round_interval: float = 10.0
    regular_slots: int = 3
    optimistic_interval: float = 30.0
    gossip_interval: float = 60.0
    seed_time: float = 10 * HOUR
    pss_view_size: int = 30
    sample_interval: float = 6 * HOUR

    def __post_init__(self) -> None:
        self.validate()
        object.__setattr__(
            self,
            "optimistic_every_rounds",
            max(1, int(round(self.optimistic_interval / self.round_interval))),
        )

    def validate(self) -> None:
        """Check parameter sanity; raises ``ValueError``.  Intervals must be
        finite and positive, ``seed_time`` finite and non-negative (a NaN
        passes every ``<=`` test, and a NaN ``seed_time`` would seed for
        ever)."""
        if not 0 < self.round_interval < inf:
            raise ValueError("round_interval must be positive")
        if self.regular_slots < 0:
            raise ValueError("regular_slots must be non-negative")
        if not self.round_interval <= self.optimistic_interval < inf:
            raise ValueError("optimistic_interval must be >= round_interval")
        if not 0 < self.gossip_interval < inf:
            raise ValueError("gossip_interval must be positive")
        if not 0 <= self.seed_time < inf:
            raise ValueError("seed_time must be non-negative")
        if self.pss_view_size < 1:
            raise ValueError("pss_view_size must be >= 1")
        if not 0 < self.sample_interval < inf:
            raise ValueError("sample_interval must be positive")
