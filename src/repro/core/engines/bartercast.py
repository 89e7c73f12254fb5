"""The paper's mechanism as an engine: a facade over the native node path.

The maxflow machinery — the dirty-set cache and the batched two-hop
kernel — lives in :class:`~repro.core.node.BarterCastNode`
itself and predates the engine interface.  Rather than duplicate it (or
regress its performance behind a generic memo), this engine forwards to
the node's ``_native_*`` methods.  Forwarding to the *native* entry
points, not the public ones, matters: a standalone ``BarterCastEngine``
can be attached to a node whose own dispatch is a rival engine (the
multi-mechanism ``repro explain`` path does exactly this), and calling
the public methods there would recurse into the rival.

The default node (``engine="bartercast"``) does not construct this class
at all — its dispatch slot stays ``None`` and the public methods fall
straight through to the native bodies, keeping the default path
byte-identical to a build without the engines package.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

from repro.core.engines.base import ReputationEngine

__all__ = ["BarterCastEngine"]

PeerId = Hashable


class BarterCastEngine(ReputationEngine):
    """BarterCast: ``arctan(maxflow(j→i) − maxflow(i→j))`` (Equation 1)."""

    name = "bartercast"
    bounds_closed = False  # arctan: the open interval (−1, 1)

    def reputation_of(self, peer: PeerId) -> float:
        return self.node._native_reputation_of(peer)

    def reputations_of(self, peers: Iterable[PeerId]) -> Dict[PeerId, float]:
        return self.node._native_reputations_of(peers)

    def rank_by_reputation(self, peers: Iterable[PeerId]) -> List[PeerId]:
        return self.node._native_rank_by_reputation(peers)

    def invalidate_cache(self) -> None:
        self.node._native_invalidate_cache()

    def evidence_flows(self, subject: PeerId) -> Tuple[float, float]:
        """(maxflow(subject→me), maxflow(me→subject)) in bytes."""
        metric = self.node.config.metric
        graph = self.node.graph
        me = self.node.peer_id
        inflow = metric.maxflow(graph, subject, me)
        outflow = metric.maxflow(graph, me, subject)
        return float(inflow), float(outflow)

    def explain_components(self, subject: PeerId) -> Dict[str, object]:
        inflow, outflow = self.evidence_flows(subject)
        metric = self.node.config.metric
        return {
            "inflow_maxflow_bytes": inflow,
            "outflow_maxflow_bytes": outflow,
            "net_bytes": inflow - outflow,
            "unit_bytes": metric.unit_bytes,
            "kernel": metric.kernel,
            "score": metric.scale(inflow - outflow),
        }
