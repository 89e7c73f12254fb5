"""Reputation policies for BitTorrent integration.

Section 4.2 of the paper defines two policies on top of the standard
tit-for-tat choker:

* **rank policy** — optimistic unchoke slots are assigned to interested
  peers in order of their reputation: "a peer can not get an upload slot
  while peers with a higher reputation are also interested and not yet
  served";
* **ban policy** — "peers do not assign any upload slots to peers that have
  a reputation which is below a certain negative threshold δ".

Plus the implicit baseline: plain BitTorrent with no reputation at all
(:class:`NoPolicy`).

The BitTorrent choker consults the policy at two points:

``allowed(node, peers)``
    Which of ``peers`` may receive *any* upload slot (regular or
    optimistic)?  The ban policy drops those below δ, reading every score
    from one batched :meth:`~repro.core.node.BarterCastNode.reputations_of`
    pass — or, with no stranger policy on a node that keeps a verdict
    memo, through :meth:`~repro.core.node.BarterCastNode.at_least`, which
    scores only the peers whose verdict the owner's recorded bytes could
    have flipped; rank and baseline keep everyone and evaluate nothing.
    ``allows(node, peer)`` is the same rule for one peer.

``order_optimistic(node, interested, rng)``
    In what order should optimistic-unchoke candidates be considered?  The
    rank policy sorts by descending reputation; the others shuffle
    uniformly (BitTorrent's round-robin is realized as a fresh random
    order per rotation, which has the same long-run fairness).  The
    choker passes only peers ``allowed`` kept in the same call, with no
    graph write in between, so no policy filters them a second time.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.core.node import BarterCastNode
from repro.sim.rng import RngStream

__all__ = ["ReputationPolicy", "NoPolicy", "RankPolicy", "BanPolicy"]

PeerId = Hashable


class ReputationPolicy:
    """Interface the choker uses to consult BarterCast.

    Policies that act on reputation values accept an optional
    ``stranger_policy`` (:mod:`repro.core.whitewashing`): when provided,
    unknown peers are scored by the stranger prior instead of a flat 0,
    which is the whitewashing countermeasure the paper defers to future
    work.
    """

    #: Tag used in experiment reports ("rank", "ban", "none").
    name = "abstract"

    #: Optional stranger policy consulted for reputation lookups.
    stranger_policy = None

    def _reputation(self, node: BarterCastNode, peer: PeerId) -> float:
        if self.stranger_policy is not None:
            return self.stranger_policy.effective_reputation(node, peer)
        return node.reputation_of(peer)

    def _reputations(
        self, node: BarterCastNode, peers: List[PeerId]
    ) -> Dict[PeerId, float]:
        """:meth:`_reputation` of every peer from one batched kernel pass
        (the stranger policy, when there is one, then reads warm scores)."""
        reps = node.reputations_of(peers)
        if self.stranger_policy is None:
            return reps
        effective = self.stranger_policy.effective_reputation
        return {p: effective(node, p) for p in reps}

    def allows(self, node: Optional[BarterCastNode], peer: PeerId) -> bool:
        """Whether ``peer`` may receive an upload slot from ``node``'s owner."""
        raise NotImplementedError

    def allowed(
        self, node: Optional[BarterCastNode], peers: List[PeerId]
    ) -> List[PeerId]:
        """The peers that may receive an upload slot, in the order given.

        What the choker asks once per round.  A policy whose ``allows``
        reads a score overrides this to read them all at once.
        """
        return [p for p in peers if self.allows(node, p)]

    def order_optimistic(
        self,
        node: Optional[BarterCastNode],
        interested: List[PeerId],
        rng: RngStream,
    ) -> List[PeerId]:
        """Candidate order for the optimistic unchoke slot (best first).

        ``interested`` already passed :meth:`allowed`: every peer in it
        may be ordered."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class NoPolicy(ReputationPolicy):
    """Plain BitTorrent: reputation is ignored entirely."""

    name = "none"

    def allows(self, node: Optional[BarterCastNode], peer: PeerId) -> bool:
        return True

    def order_optimistic(
        self,
        node: Optional[BarterCastNode],
        interested: List[PeerId],
        rng: RngStream,
    ) -> List[PeerId]:
        return rng.shuffled(interested)


class RankPolicy(ReputationPolicy):
    """Optimistic slots in descending reputation order.

    Strangers (reputation ≈ 0) tie; ties are shuffled so newcomers still
    rotate through the optimistic slot as in plain BitTorrent.
    """

    name = "rank"

    def __init__(self, stranger_policy=None) -> None:
        self.stranger_policy = stranger_policy

    def allows(self, node: Optional[BarterCastNode], peer: PeerId) -> bool:
        return True

    def order_optimistic(
        self,
        node: Optional[BarterCastNode],
        interested: List[PeerId],
        rng: RngStream,
    ) -> List[PeerId]:
        shuffled = rng.shuffled(interested)
        if node is not None:
            # The only scores this policy ever reads: the peers outside
            # the regular slots, when the optimistic slot is re-picked.
            reps = self._reputations(node, shuffled)
            shuffled.sort(key=lambda p: -reps[p])
        return shuffled


class BanPolicy(ReputationPolicy):
    """No upload slots for peers below the threshold δ.

    Parameters
    ----------
    delta:
        The (negative) reputation threshold; the paper evaluates
        δ ∈ {−0.3, −0.5, −0.7} and finds −0.5 a good operating point.

    Banned peers are also excluded from the optimistic rotation: the
    choker offers it only peers :meth:`allowed` kept.  Among those the
    optimistic order is uniform, as in plain BitTorrent (the ban policy is
    evaluated separately from the rank policy in the paper).
    """

    name = "ban"

    def __init__(self, delta: float = -0.5, stranger_policy=None) -> None:
        if not -1.0 <= delta <= 0.0:
            raise ValueError(f"delta must be in [-1, 0], got {delta}")
        self.delta = float(delta)
        self.stranger_policy = stranger_policy

    def allows(self, node: Optional[BarterCastNode], peer: PeerId) -> bool:
        if node is None:
            return True
        return self._reputation(node, peer) >= self.delta

    def allowed(
        self, node: Optional[BarterCastNode], peers: List[PeerId]
    ) -> List[PeerId]:
        if node is None:
            return list(peers)
        if self.stranger_policy is None and node.keeps_verdicts:
            return node.at_least(peers, self.delta)
        reps = self._reputations(node, peers)
        delta = self.delta
        return [p for p in peers if reps[p] >= delta]

    def order_optimistic(
        self,
        node: Optional[BarterCastNode],
        interested: List[PeerId],
        rng: RngStream,
    ) -> List[PeerId]:
        return rng.shuffled(interested)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BanPolicy delta={self.delta}>"
