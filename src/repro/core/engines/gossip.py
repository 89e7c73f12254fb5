"""Differential-gossip aggregation (Gupta & Singh, PAPERS.md).

Their mechanism estimates each peer's *net contribution* by aggregating
transfer reports that spread epidemically, discounting information by
how it was learned: a peer trusts its own interactions fully and
gossip-relayed reports less (the "differential" in differential gossip),
which converges toward the global average without flooding the network.

Mapped onto this codebase: the subjective transfer graph *is* the
aggregation state — first-hand edges (incident to the owner, written
from the private history) carry weight 1.0, and every other edge was
learned through BarterCast's gossip layer and carries ``gossip_weight``
(default 0.5).  Because the evidence arrives over the existing
message/channel layer, the fault knobs — loss, duplication, delay, churn
wipes — degrade this engine exactly as they degrade BarterCast, which is
the property the mechanism sweep needs for an apples-to-apples
comparison.  The score is the weighted net contribution pushed through
the same arctan scale as Equation 1 (shared ``unit_bytes``), so the two
arctan engines are threshold-comparable and the sweep's δ applies
unchanged.

Unlike maxflow, this is a *volume* aggregate: it has no path structure,
so a peer's reported uploads count even when no flow path to the owner
exists.  That is the design difference under test — aggregation recovers
coverage faster from sparse gossip but is trivially inflatable by a liar
(no bottleneck capacity), which the sweep's false-ban and inversion
measures expose.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.core.engines.base import ReputationEngine

__all__ = ["DifferentialGossipEngine"]

PeerId = Hashable


class DifferentialGossipEngine(ReputationEngine):
    """Power-aware gossip aggregation: weighted net contribution, arctan-scaled."""

    name = "gossip"
    bounds_closed = False  # arctan: the open interval (−1, 1)

    def __init__(self, gossip_weight: float = 0.5) -> None:
        if not 0.0 <= gossip_weight <= 1.0:
            raise ValueError(
                f"gossip_weight must be in [0, 1], got {gossip_weight}"
            )
        self.gossip_weight = float(gossip_weight)

    # ------------------------------------------------------------------
    def evidence_flows(self, node, subject: PeerId) -> Tuple[float, float]:
        """(weighted uploads, weighted downloads) of ``subject`` in bytes.

        Edges incident to the owner are first-hand (weight 1.0); all
        others arrived via gossip (weight ``gossip_weight``).
        """
        graph = node.graph
        me = node.peer_id
        w = self.gossip_weight
        if not graph.has_node(subject):
            return 0.0, 0.0
        up = 0.0
        for dst, nbytes in graph.successors(subject).items():
            up += nbytes if dst == me else w * nbytes
        down = 0.0
        for src, nbytes in graph.predecessors(subject).items():
            down += nbytes if src == me else w * nbytes
        return up, down

    def score(self, node, peer: PeerId) -> float:
        up, down = self.evidence_flows(node, peer)
        return node.config.metric.scale(up - down)

    def explain_components(self, node, subject: PeerId) -> Dict[str, object]:
        up, down = self.evidence_flows(node, subject)
        graph = node.graph
        me = node.peer_id
        first_up = float(graph.capacity(subject, me))
        first_down = float(graph.capacity(me, subject))
        metric = node.config.metric
        return {
            "weighted_upload_bytes": up,
            "weighted_download_bytes": down,
            "net_bytes": up - down,
            "firsthand_upload_bytes": first_up,
            "firsthand_download_bytes": first_down,
            "gossip_weight": self.gossip_weight,
            "unit_bytes": metric.unit_bytes,
            "score": metric.scale(up - down),
        }
