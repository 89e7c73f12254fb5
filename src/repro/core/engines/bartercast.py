"""The paper's mechanism as an engine: Equation (1) on the node's graph.

The scorer calls the node's :class:`~repro.core.reputation
.ReputationMetric` — ``reputation`` for one peer, ``reputation_batch``
(the batched two-hop kernel) for several — and the node serves the
results through its dirty-set cache, exactly as for every engine.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

from repro.core.engines.base import ReputationEngine
from repro.graph.maxflow import maxflow_two_hop_pair

__all__ = ["BarterCastEngine"]

PeerId = Hashable


class BarterCastEngine(ReputationEngine):
    """BarterCast: ``arctan(maxflow(j→i) − maxflow(i→j))`` (Equation 1)."""

    name = "bartercast"
    bounds_closed = False  # arctan: the open interval (−1, 1)

    def score(self, node, peer: PeerId) -> float:
        return node.config.metric.reputation(node.graph, node.peer_id, peer)

    def scores(self, node, peers: Iterable[PeerId]) -> Dict[PeerId, float]:
        return node.config.metric.reputation_batch(node.graph, node.peer_id, peers)

    def outside_reach_score(self, node) -> float:
        """``scale(0.0)``: with no path of at most two edges either way,
        both flows are 0.0."""
        return node.config.metric.scale(0.0)

    def score_slope(self, node) -> float:
        """The metric's :attr:`~repro.core.reputation.ReputationMetric
        .slope`: a byte on an owner edge moves either closed-form flow,
        so their difference, by at most one byte."""
        return node.config.metric.slope

    def evidence_flows(self, node, subject: PeerId) -> Tuple[float, float]:
        """(maxflow(subject→me), maxflow(me→subject)) in bytes."""
        inflow, outflow = maxflow_two_hop_pair(node.graph, node.peer_id, subject)
        return float(inflow), float(outflow)

    def explain_components(self, node, subject: PeerId) -> Dict[str, object]:
        inflow, outflow = self.evidence_flows(node, subject)
        metric = node.config.metric
        return {
            "inflow_maxflow_bytes": inflow,
            "outflow_maxflow_bytes": outflow,
            "net_bytes": inflow - outflow,
            "unit_bytes": metric.unit_bytes,
            "kernel": "two_hop",
            "score": metric.scale(inflow - outflow),
        }
