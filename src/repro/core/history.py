"""The private history ledger.

Each peer records, per counterparty, the total bytes it has uploaded to and
downloaded from that counterparty, plus the last time the counterparty was
seen.  The paper's security argument rests on this ledger being local and
unforgeable-by-others: the maxflow toward the evaluating peer *i* is always
constrained by *i*'s incoming edges, and those come exclusively from *i*'s
own private history.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import inf
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

__all__ = ["TransferTotals", "PrivateHistory"]

PeerId = Hashable


@dataclass
class TransferTotals:
    """Aggregated transfer totals with one counterparty.

    Attributes
    ----------
    uploaded:
        Total bytes the ledger owner uploaded *to* the counterparty.
    downloaded:
        Total bytes the ledger owner downloaded *from* the counterparty.
    last_seen:
        Simulated time (seconds) of the most recent interaction.
    """

    uploaded: float = 0.0
    downloaded: float = 0.0
    last_seen: float = 0.0


class PrivateHistory:
    """A peer's own record of its data exchanges.

    Mutations go through :meth:`record_upload` / :meth:`record_download` /
    :meth:`touch`; reads expose per-peer totals and the two selections the
    BarterCast message protocol needs (top uploaders to the owner, most
    recently seen peers).  Both selections are served from state that is
    repaired only where a mutation touched it (DESIGN.md, "Gossip hot
    path"); their results equal a full stable sort of the ledger.

    Parameters
    ----------
    owner:
        Identifier of the peer this ledger belongs to.
    """

    def __init__(self, owner: PeerId) -> None:
        self.owner = owner
        self._records: Dict[PeerId, TransferTotals] = {}
        # peer -> (-last_seen, repr(peer), insertion seq, peer): the key the
        # peer is filed under in ``_recent``.  The unique ``seq`` makes plain
        # tuple order the stable sort by ``(-last_seen, repr)`` and keeps
        # the peer ids themselves from ever being compared.
        self._keys: Dict[PeerId, Tuple[float, str, int, PeerId]] = {}
        self._recent: List[Tuple[float, str, int, PeerId]] = []
        # Peers whose ``last_seen`` may differ from their filed key.
        self._moved: Set[PeerId] = set()
        # Top-uploader ranking; ``None`` after a ``record_download`` that
        # moved a total, the only mutation that can reorder it.
        self._top: Optional[List[PeerId]] = None
        #: Wire records last built by :func:`repro.core.messages.select_records`,
        #: per counterparty.  A mutation that moves a counterparty's total
        #: drops its record, so every record held here matches the ledger.
        self.wire_records: Dict[PeerId, object] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def record_upload(self, peer: PeerId, nbytes: float, now: float) -> float:
        """Record that the owner uploaded ``nbytes`` to ``peer`` at ``now``;
        returns the new total uploaded to ``peer``."""
        rec = self._records.get(peer)
        if rec is None or not 0 <= nbytes < inf:  # also true for NaN
            self._validate(peer, nbytes)
            rec = self._get_or_create(peer)
        nbytes = float(nbytes)
        total = rec.uploaded + nbytes
        if total != rec.uploaded:
            rec.uploaded = total
            self.wire_records.pop(peer, None)
        now = float(now)
        if now > rec.last_seen:
            rec.last_seen = now
        self._moved.add(peer)
        return total

    def record_download(self, peer: PeerId, nbytes: float, now: float) -> float:
        """Record that the owner downloaded ``nbytes`` from ``peer`` at ``now``;
        returns the new total downloaded from ``peer``."""
        rec = self._records.get(peer)
        if rec is None or not 0 <= nbytes < inf:  # also true for NaN
            self._validate(peer, nbytes)
            rec = self._get_or_create(peer)
        nbytes = float(nbytes)
        total = rec.downloaded + nbytes
        if total != rec.downloaded:
            rec.downloaded = total
            self.wire_records.pop(peer, None)
            self._top = None
        now = float(now)
        if now > rec.last_seen:
            rec.last_seen = now
        self._moved.add(peer)
        return total

    def touch(self, peer: PeerId, now: float) -> None:
        """Record an interaction with ``peer`` (e.g. a gossip exchange)
        without any transfer, so it counts as "recently seen"."""
        if peer == self.owner:
            raise ValueError("a peer cannot interact with itself")
        rec = self._get_or_create(peer)
        rec.last_seen = max(rec.last_seen, float(now))
        self._moved.add(peer)

    def _validate(self, peer: PeerId, nbytes: float) -> None:
        if peer == self.owner:
            raise ValueError("a peer cannot transfer data with itself")
        if not 0 <= nbytes < inf:  # also false for NaN
            raise ValueError(
                f"transfer size must be finite and non-negative, got {nbytes}"
            )

    def _get_or_create(self, peer: PeerId) -> TransferTotals:
        rec = self._records.get(peer)
        if rec is None:
            rec = TransferTotals()
            self._records[peer] = rec
            key = self._keys[peer] = (0.0, repr(peer), len(self._keys), peer)
            insort(self._recent, key)
        return rec

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, peer: PeerId) -> TransferTotals:
        """Totals with ``peer`` (zeros if never interacted).

        The returned object is a copy; mutating it does not affect the
        ledger.
        """
        rec = self._records.get(peer)
        if rec is None:
            return TransferTotals()
        return TransferTotals(rec.uploaded, rec.downloaded, rec.last_seen)

    def totals(self, peer: PeerId) -> TransferTotals:
        """The live totals with a known counterparty (do not mutate).

        Raises ``KeyError`` for a peer never interacted with.
        """
        return self._records[peer]

    def __len__(self) -> int:
        return len(self._records)

    def peers(self) -> Iterator[PeerId]:
        """Iterate over all counterparties."""
        return iter(self._records)

    def items(self) -> Iterator[Tuple[PeerId, TransferTotals]]:
        """Iterate over ``(peer, totals)`` pairs (live objects, do not mutate)."""
        return iter(self._records.items())

    # ------------------------------------------------------------------
    # Message-protocol selections
    # ------------------------------------------------------------------
    def top_uploaders(self, n: int) -> List[PeerId]:
        """The ``n`` peers with the highest upload *to the owner*.

        Ties are broken deterministically by peer id representation so the
        protocol is reproducible across runs.
        """
        if n <= 0:
            return []
        top = self._top
        if top is None:
            keys = self._keys
            ranked = sorted(
                (-rec.downloaded, *keys[peer][1:])
                for peer, rec in self._records.items()
                if rec.downloaded > 0
            )
            top = self._top = [key[3] for key in ranked]
        return top[:n]

    def most_recent(self, n: int) -> List[PeerId]:
        """The ``n`` most recently seen peers (newest first)."""
        if n <= 0:
            return []
        recent = self._recent
        if self._moved:
            keys, records = self._keys, self._records
            for peer in self._moved:
                old = keys[peer]
                neg_seen = -records[peer].last_seen
                if neg_seen != old[0]:
                    del recent[bisect_left(recent, old)]
                    key = keys[peer] = (neg_seen, *old[1:])
                    insort(recent, key)
            self._moved.clear()
        return [key[3] for key in recent[:n]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PrivateHistory owner={self.owner!r} peers={len(self._records)}>"
