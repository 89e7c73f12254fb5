"""Swarm state: membership, bitfields, availability.

A :class:`SwarmState` tracks which peers are members of one torrent, their
piece possession, the per-piece availability counts that drive rarest-first
selection, and the per-round transfer rates that drive tit-for-tat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bittorrent.piece import Bitfield
from repro.traces.models import SwarmSpec

__all__ = ["MemberState", "SwarmState"]


@dataclass
class MemberState:
    """One peer's state within one swarm.

    Attributes
    ----------
    peer_id:
        The member peer.
    bitfield:
        Piece possession.
    joined_at:
        Simulated time the peer (first) joined.
    completed_at:
        Time the download finished, or ``None`` while leeching.
    received_last_round:
        ``{uploader_id: bytes}`` received in the previous round — the
        tit-for-tat ranking key for leechers.
    sent_last_round:
        ``{downloader_id: bytes}`` sent in the previous round — the
        ranking key for seeders (serve the fastest downloaders).
    optimistic_peer / optimistic_chosen_round:
        Current optimistic-unchoke target and when it was chosen.
    carry:
        ``{uploader_id: bytes}`` of partial-piece progress carried between
        rounds per connection.
    """

    peer_id: int
    bitfield: Bitfield
    joined_at: float
    completed_at: Optional[float] = None
    received_last_round: Dict[int, float] = field(default_factory=dict)
    sent_last_round: Dict[int, float] = field(default_factory=dict)
    optimistic_peer: Optional[int] = None
    optimistic_chosen_round: int = -(10**9)
    carry: Dict[int, float] = field(default_factory=dict)

    @property
    def is_seeder(self) -> bool:
        """Whether the member holds the complete file."""
        return self.bitfield.is_complete


class SwarmState:
    """All simulator state for one torrent.

    Parameters
    ----------
    spec:
        The trace's swarm description (sizes, origin seeder).
    """

    def __init__(self, spec: SwarmSpec) -> None:
        self.spec = spec
        self.num_pieces = spec.num_pieces
        self.members: Dict[int, MemberState] = {}
        #: Members still downloading / holding the whole file, maintained by
        #: ``join``, ``grant_pieces`` (completion) and ``leave`` so a round
        #: never rescans ``members``; the leecher roster iterates in
        #: ``members`` order.  Read-only for callers.
        self.leecher_roster: Dict[int, MemberState] = {}
        self.seeder_roster: Dict[int, MemberState] = {}
        #: Per-piece copy counts among current members (rarest-first key).
        self.availability = np.zeros(self.num_pieces, dtype=np.int32)
        self.completions = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, peer_id: int, now: float, complete: bool = False) -> MemberState:
        """Add a member (idempotent: rejoining returns the existing state).

        ``complete=True`` joins the peer as a seeder (origin seeders).
        """
        member = self.members.get(peer_id)
        if member is not None:
            return member
        bitfield = Bitfield(self.num_pieces, complete=complete)
        member = MemberState(
            peer_id=peer_id,
            bitfield=bitfield,
            joined_at=now,
            completed_at=now if complete else None,
        )
        self.members[peer_id] = member
        if complete:
            self.seeder_roster[peer_id] = member
            self.availability += 1
        else:
            self.leecher_roster[peer_id] = member
        return member

    def leave(self, peer_id: int) -> None:
        """Remove a member and its availability contribution (idempotent)."""
        member = self.members.pop(peer_id, None)
        if member is None:
            return
        if self.leecher_roster.pop(peer_id, None) is None:
            del self.seeder_roster[peer_id]
        if member.bitfield.num_have:
            self.availability -= member.bitfield.have.astype(np.int32)

    def is_member(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently a member."""
        return peer_id in self.members

    # ------------------------------------------------------------------
    # Piece bookkeeping
    # ------------------------------------------------------------------
    def grant_pieces(self, member: MemberState, pieces: np.ndarray, now: float) -> bool:
        """Mark ``pieces`` as completed by ``member`` (a current member);
        returns True if the download just finished — the one place a
        leecher moves to the seeder roster.  Only pieces it did not hold
        yet count towards ``availability``."""
        bitfield = member.bitfield
        if len(pieces) == 1:
            # Most grants are one piece: scalar access, no mask or recount.
            piece = pieces[0]
            if bitfield.add(piece):
                self.availability[piece] += 1
        else:
            new = pieces[~bitfield.have[pieces]]
            if bitfield.add_many(new):
                self.availability[new] += 1
        if member.completed_at is None and bitfield.is_complete:
            member.completed_at = now
            self.completions += 1
            self.seeder_roster[member.peer_id] = self.leecher_roster.pop(member.peer_id)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SwarmState {self.spec.swarm_id} members={len(self.members)} "
            f"pieces={self.num_pieces} completions={self.completions}>"
        )
