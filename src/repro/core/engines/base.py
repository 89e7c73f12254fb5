"""The ``ReputationEngine`` interface: one pluggable freeriding defense.

BarterCast's maxflow-over-gossiped-history is *one* way to turn a
subjective transfer graph into reputations; the related work names
rivals (differential-gossip aggregation, private-tracker ratio credit).
An engine is a stateless scoring function of a
:class:`~repro.core.node.BarterCastNode`'s subjective state, so rival
mechanisms run under the same simulator, fault harness and sweep
machinery.  The node owns everything else: the one dirty-set cache, its
counters, and ``reputation_of`` / ``reputations_of`` /
``rank_by_reputation`` with their shared rank tie-break.

Contract (every engine; every method takes the node)
----------------------------------------------------
* Scores live in ``score_bounds`` (default ``(-1, 1)``); whether the
  endpoints are reachable is declared by ``bounds_closed`` (the fault
  auditor range-checks per engine).  Scores are **never** NaN — a peer
  with no evidence scores exactly ``0.0``.
* ``score(node, j)`` is a pure function of the node's *subjective
  state* (its graph / histories) at call time: engines read what gossip
  delivered, so the fault knobs (loss, duplication, delay, churn wipes)
  apply to every mechanism for free.  ``scores(node, peers)`` is the
  batch form and must be value-identical to scalar calls.
* A change to edge ``(x, y)`` moves only ``x``'s and ``y``'s scores,
  unless the edge touches the owner: every engine reads only the edges
  incident to the owner and to its subject (BarterCast's paths of at most
  two edges included), which makes the node's dirty-set invalidation
  exact (DESIGN.md §6).
* ``outside_reach_score(node)`` is the score of every peer linked to the
  owner by no path of at most two edges, when the engine's score is
  fixed by that alone, else ``None`` (the default).  The node then
  answers such a peer without calling ``score`` / ``scores``
  (DESIGN.md §6, "Reach set").
* ``score_slope(node)`` bounds how far any score moves per byte written
  to one of the owner's own edges, when the engine has such a bound,
  else ``None`` (the default).  The node then reuses a ban verdict until
  the bytes it recorded since could carry the score across δ (DESIGN.md
  §6, "Verdict memo").
* ``effective_delta(delta)`` maps the sweep's ban threshold into the
  engine's own score space (the ratio engine bans on a *ratio*
  threshold, not a flow-difference one), so the false-ban measure is
  well-defined per mechanism instead of silently wrong.
* ``evidence_flows(node, j)`` returns the engine's (in, out) evidence
  totals in bytes — maxflow values for BarterCast, weighted/raw volume
  sums for the aggregation engines — feeding the sweep's inversion
  digests and ``repro explain``.
* ``explain_components(node, j)`` returns a flat JSON-safe dict
  decomposing the score, for the per-mechanism section of
  ``repro explain``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime cycle
    from repro.core.node import BarterCastNode

__all__ = ["ReputationEngine"]

PeerId = Hashable


class ReputationEngine:
    """One reputation mechanism: a scoring function of a node's state.

    Engines hold only their own knobs, never per-node state, and are
    built by name (sweeps pickle the *name* and workers rebuild them).
    """

    #: Registry / report tag ("bartercast", "gossip", "ratio").
    name = "abstract"

    #: (lo, hi) range every score must fall in (audit invariant 3).
    score_bounds: Tuple[float, float] = (-1.0, 1.0)

    #: Whether the bounds are attainable.  The arctan-scaled engines live
    #: in the *open* interval; the ratio engine reaches ±1 exactly (a
    #: pure leecher is −1), so its auditor check is closed.
    bounds_closed = False

    def score(self, node: "BarterCastNode", peer: PeerId) -> float:
        """The score of ``peer`` from ``node``'s subjective state."""
        raise NotImplementedError

    def scores(
        self, node: "BarterCastNode", peers: Iterable[PeerId]
    ) -> Dict[PeerId, float]:
        """Batch form of :meth:`score` over distinct non-owner ``peers``."""
        return {p: self.score(node, p) for p in peers}

    def outside_reach_score(self, node: "BarterCastNode") -> Optional[float]:
        """The score of a peer more than two hops from the owner in
        both directions, if that alone decides it; ``None`` otherwise."""
        return None

    def score_slope(self, node: "BarterCastNode") -> Optional[float]:
        """The most any score moves per byte written to an owner edge,
        if the engine bounds it; ``None`` otherwise."""
        return None

    def effective_delta(self, delta: float) -> float:
        """Map the sweep's ban threshold into this engine's score space.

        The default is the identity: ``delta`` is already a score
        threshold for mechanisms scaled like the paper's Equation (1).
        Engines with their own banning convention (the ratio engine's
        private-tracker ratio floor) translate here, so the false-ban
        measure compares mechanisms at *their* operating points.
        """
        return delta

    def evidence_flows(
        self, node: "BarterCastNode", subject: PeerId
    ) -> Tuple[float, float]:
        """(inbound, outbound) evidence totals in bytes for ``subject``.

        Whatever "service toward me vs consumed" means under this
        mechanism: maxflow values for BarterCast, (weighted) volume sums
        for the aggregation engines.  Feeds inversion digests.
        """
        raise NotImplementedError

    def explain_components(
        self, node: "BarterCastNode", subject: PeerId
    ) -> Dict[str, object]:
        """Flat JSON-safe decomposition of ``score(node, subject)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name}>"
