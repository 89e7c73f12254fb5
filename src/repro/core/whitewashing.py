"""Whitewashing countermeasures: stranger policies.

Section 3.5 of the paper: a peer with a bad reputation can *whitewash* by
re-entering under a fresh (cheap) identity.  Following Feldman et al.,
there are only two counters: unforgeable identities (what the deployed
Tribler assumes — a machine-dependent permanent identifier), or a penalty
imposed on all newcomers, either **static** or set **adaptively** from
the observed behaviour of past newcomers.  The paper defers the
penalty-based variants to future work; this module implements them so the
trade-off can be measured (see ``benchmarks/bench_ablation_whitewash.py``).

A :class:`StrangerPolicy` maps a peer's raw subjective reputation to the
*effective* reputation used by decision policies, treating *strangers* —
peers the evaluator has no information about — specially:

* :class:`TrustedIdentities` — the deployed assumption: identities are
  permanent, strangers are genuine newcomers, no penalty (effective
  reputation 0).
* :class:`StaticStrangerPenalty` — every stranger starts at a fixed
  negative reputation.
* :class:`AdaptiveStrangerPenalty` — the stranger prior tracks the
  average reputation that past strangers *earned* once they became known:
  in a whitewashing population newcomers keep disappointing, so the prior
  sinks toward the ban threshold; in an honest population it recovers
  toward zero.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.node import BarterCastNode

__all__ = [
    "StrangerPolicy",
    "TrustedIdentities",
    "StaticStrangerPenalty",
    "AdaptiveStrangerPenalty",
    "is_stranger",
]

PeerId = Hashable


def is_stranger(node: BarterCastNode, peer: PeerId) -> bool:
    """Whether ``node`` has no information at all about ``peer``.

    A stranger has no edges in the subjective graph — no direct history
    and no third-party claims.  (A peer with edges but zero maxflow is
    *not* a stranger: someone has vouched something about it.)
    """
    if peer == node.peer_id:
        return False
    graph = node.graph
    if not graph.has_node(peer):
        return True
    return graph.in_degree(peer) == 0 and graph.out_degree(peer) == 0


class StrangerPolicy:
    """Maps raw subjective reputation to effective reputation."""

    #: Tag used in reports.
    name = "abstract"

    def effective_reputation(self, node: BarterCastNode, peer: PeerId) -> float:
        """The reputation a decision policy should act on."""
        raise NotImplementedError

    def observe(self, reputation: float) -> None:
        """Feed back the earned reputation of a once-stranger (adaptive
        policies learn from this; others ignore it)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class TrustedIdentities(StrangerPolicy):
    """Permanent identities: strangers are genuine newcomers (prior 0).

    This matches the deployed BarterCast, which relies on Tribler's
    machine-dependent permanent identifier.
    """

    name = "trusted-ids"

    def effective_reputation(self, node: BarterCastNode, peer: PeerId) -> float:
        if is_stranger(node, peer):
            return 0.0
        return node.reputation_of(peer)


class StaticStrangerPenalty(StrangerPolicy):
    """Fixed newcomer penalty.

    Parameters
    ----------
    penalty:
        The effective reputation assigned to strangers; must lie in
        ``[-1, 0]``.  A penalty below a ban threshold δ locks newcomers
        out entirely — the classic cost of fighting whitewashers.
    """

    name = "static-penalty"

    def __init__(self, penalty: float = -0.2) -> None:
        if not -1.0 <= penalty <= 0.0:
            raise ValueError(f"penalty must be in [-1, 0], got {penalty}")
        self.penalty = float(penalty)

    def effective_reputation(self, node: BarterCastNode, peer: PeerId) -> float:
        if is_stranger(node, peer):
            return self.penalty
        return node.reputation_of(peer)


class AdaptiveStrangerPenalty(StrangerPolicy):
    """Adaptive stranger policy (Feldman et al.).

    The stranger prior is an exponential moving average of the reputation
    that past strangers earned after becoming known, clipped to
    ``[floor, 0]``.  Populations full of whitewashers drag the prior
    down; honest newcomers pull it back up.

    Parameters
    ----------
    alpha:
        EMA smoothing factor in (0, 1]; higher = adapts faster.
    floor:
        Most negative prior allowed.
    initial:
        Starting prior (0 = optimistic).
    """

    name = "adaptive-penalty"

    def __init__(self, alpha: float = 0.1, floor: float = -0.8, initial: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not -1.0 <= floor <= 0.0:
            raise ValueError(f"floor must be in [-1, 0], got {floor}")
        if not floor <= initial <= 0.0:
            raise ValueError(f"initial must be in [floor, 0], got {initial}")
        self.alpha = float(alpha)
        self.floor = float(floor)
        self._prior = float(initial)

    @property
    def prior(self) -> float:
        """The current stranger prior."""
        return self._prior

    def observe(self, reputation: float) -> None:
        """Update the prior with the earned reputation of a once-stranger."""
        blended = (1.0 - self.alpha) * self._prior + self.alpha * reputation
        self._prior = min(0.0, max(self.floor, blended))

    def effective_reputation(self, node: BarterCastNode, peer: PeerId) -> float:
        if is_stranger(node, peer):
            return self._prior
        return node.reputation_of(peer)
