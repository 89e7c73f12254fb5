"""Trace data model.

A :class:`CommunityTrace` is everything the simulator needs about the
*environment*: who exists, when they are online, which files they request,
how large the files are, and whether peers accept incoming connections.
Behavioural roles (sharer vs freerider, honest vs liar) are *not* part of
the trace — the paper assigns them synthetically on top of the trace, and
so do the experiment drivers.

All times are seconds from trace start; all sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "PeerSession",
    "PeerProfile",
    "SwarmSpec",
    "FileRequest",
    "CommunityTrace",
]

DAY = 86400.0
HOUR = 3600.0


@dataclass(frozen=True)
class PeerSession:
    """One online interval of a peer: ``[start, end)`` seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty session [{self.start}, {self.end})")
        if self.start < 0:
            raise ValueError(f"session starts before trace start: {self.start}")

    @property
    def duration(self) -> float:
        """Session length in seconds."""
        return self.end - self.start


@dataclass
class PeerProfile:
    """Static facts about one peer.

    Attributes
    ----------
    peer_id:
        Integer peer identifier, unique within the trace.
    uplink_bps / downlink_bps:
        Link capacities in bytes/second.  The paper overrides the unknown
        real capacities with common ADSL values (512 KBps up, 3 MBps down).
    connectable:
        Whether the peer accepts incoming connections (NAT/firewall state
        from the trace).  Two unconnectable peers cannot exchange data.
    sessions:
        Online intervals, non-overlapping and sorted by start time.
    """

    peer_id: int
    uplink_bps: float
    downlink_bps: float
    connectable: bool = True
    sessions: List[PeerSession] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError("link capacities must be positive")
        self._check_sessions()

    def _check_sessions(self) -> None:
        prev_end = -1.0
        for s in self.sessions:
            if s.start < prev_end:
                raise ValueError(f"overlapping/unsorted sessions for peer {self.peer_id}")
            prev_end = s.end

    def online_at(self, t: float) -> bool:
        """Whether the peer is online at time ``t`` (binary search)."""
        lo, hi = 0, len(self.sessions)
        while lo < hi:
            mid = (lo + hi) // 2
            s = self.sessions[mid]
            if t < s.start:
                hi = mid
            elif t >= s.end:
                lo = mid + 1
            else:
                return True
        return False

    def next_online_time(self, t: float) -> Optional[float]:
        """The earliest time ``>= t`` at which the peer is online, or
        ``None`` if no remaining session reaches ``t``."""
        for s in self.sessions:
            if s.end <= t:
                continue
            return max(s.start, t)
        return None

    @property
    def total_uptime(self) -> float:
        """Sum of all session durations."""
        return sum(s.duration for s in self.sessions)


@dataclass(frozen=True)
class SwarmSpec:
    """One shared file / torrent.

    Attributes
    ----------
    swarm_id:
        Integer swarm identifier.
    file_size:
        Bytes.
    piece_size:
        Bytes per piece; the last piece may be short.
    origin_seeder:
        Peer id of the initial content provider (private communities keep
        at least one seed per torrent; see DESIGN.md §4).
    """

    swarm_id: int
    file_size: float
    piece_size: float
    origin_seeder: int

    def __post_init__(self) -> None:
        if self.file_size <= 0 or self.piece_size <= 0:
            raise ValueError("file and piece sizes must be positive")
        if self.piece_size > self.file_size:
            raise ValueError("piece size exceeds file size")

    @property
    def num_pieces(self) -> int:
        """Number of pieces, rounding the last piece up."""
        return int(-(-self.file_size // self.piece_size))


@dataclass(frozen=True)
class FileRequest:
    """Peer ``peer_id`` starts downloading swarm ``swarm_id`` at ``time``."""

    peer_id: int
    swarm_id: int
    time: float


@dataclass
class CommunityTrace:
    """A complete simulation workload.

    Attributes
    ----------
    duration:
        Trace horizon in seconds.
    peers:
        ``{peer_id: PeerProfile}``.
    swarms:
        ``{swarm_id: SwarmSpec}``.
    requests:
        File requests sorted by time.
    """

    duration: float
    peers: Dict[int, PeerProfile]
    swarms: Dict[int, SwarmSpec]
    requests: List[FileRequest]

    def validate(self) -> None:
        """Check cross-references and ordering; raises ``ValueError``."""
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        prev_t = -1.0
        for req in self.requests:
            if req.time < prev_t:
                raise ValueError("requests not sorted by time")
            prev_t = req.time
            if req.peer_id not in self.peers:
                raise ValueError(f"request by unknown peer {req.peer_id}")
            if req.swarm_id not in self.swarms:
                raise ValueError(f"request for unknown swarm {req.swarm_id}")
            if not (0 <= req.time < self.duration):
                raise ValueError(f"request at t={req.time} outside trace")
            if not self.peers[req.peer_id].online_at(req.time):
                raise ValueError(
                    f"peer {req.peer_id} requests swarm {req.swarm_id} while offline"
                )
        for swarm in self.swarms.values():
            if swarm.origin_seeder not in self.peers:
                raise ValueError(
                    f"swarm {swarm.swarm_id} origin seeder {swarm.origin_seeder} unknown"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommunityTrace peers={len(self.peers)} swarms={len(self.swarms)} "
            f"requests={len(self.requests)} days={self.duration / DAY:.1f}>"
        )
