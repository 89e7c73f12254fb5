"""Ratio-credit economy (private-tracker style; PAPERS.md).

Private BitTorrent communities enforce a *share ratio*: each member's
lifetime upload ÷ download, with accounts below a floor (commonly 0.25
.. 0.7) losing access.  As a decentralized analogue, this engine scores
a peer from the owner's subjective graph totals:

    score(j) = (u − d) / (u + d)

with ``u`` = total bytes *j* is believed to have uploaded (to anyone)
and ``d`` = total bytes downloaded.  This is the share ratio squashed
onto [−1, 1] — score s corresponds to ratio (1+s)/(1−s) — making it
rank-equivalent to the tracker's u/d while staying bounded (a tracker's
raw ratio is unbounded above, which no fixed score scale can hold).

Semantics that differ from the arctan engines, on purpose:

* **Closed bounds.**  A pure leecher is exactly −1 and a pure seeder
  exactly +1, so the auditor's range check is ``<=`` for this engine
  (``bounds_closed``).
* **Scale-free.**  Ratio credit ignores volume: 1 MB up / 2 MB down
  scores the same as 1 TB / 2 TB.  ``unit_bytes`` plays no role.
* **Bootstrap grace.**  With no evidence (u = d = 0) the raw formula is
  0/0; the engine defines that as 0.0 — a stranger is neutral, never
  NaN, matching tracker grace periods for new members.  This is also
  what keeps :class:`~repro.core.policies.RankPolicy` well-behaved at
  bootstrap: all-zero scores tie, and the tie-shuffle preserves plain
  BitTorrent's rotation cadence.
* **Own threshold convention.**  Banning is configured as a *ratio*
  floor (``ban_ratio``, default 0.25), mapped into score space by
  :meth:`effective_delta` as (r − 1)/(r + 1); e.g. ratio 0.25 → score
  −0.6.  The sweep's δ (a flow-difference threshold) is ignored — the
  false-ban measure evaluates each mechanism at its native operating
  point.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.core.engines.base import ReputationEngine

__all__ = ["RatioCreditEngine"]

PeerId = Hashable


class RatioCreditEngine(ReputationEngine):
    """Upload/download ratio credit with a configurable ban floor."""

    name = "ratio"
    bounds_closed = True  # pure leecher = −1, pure seeder = +1, exactly

    def __init__(self, ban_ratio: float = 0.25) -> None:
        if not 0.0 <= ban_ratio <= 1.0:
            raise ValueError(
                f"ban_ratio must be in [0, 1] (a floor below parity), got {ban_ratio}"
            )
        self.ban_ratio = float(ban_ratio)

    def evidence_flows(self, node, subject: PeerId) -> Tuple[float, float]:
        """(total upload bytes, total download bytes) of ``subject``."""
        graph = node.graph
        if not graph.has_node(subject):
            return 0.0, 0.0
        return (
            float(sum(graph.successors(subject).values())),
            float(sum(graph.predecessors(subject).values())),
        )

    def score(self, node, peer: PeerId) -> float:
        up, down = self.evidence_flows(node, peer)
        total = up + down
        if total <= 0.0:
            return 0.0  # bootstrap grace: no evidence is neutral, not NaN
        return (up - down) / total

    def effective_delta(self, delta: float) -> float:
        """The ban floor in score space: ratio r ↦ (r − 1)/(r + 1).

        ``delta`` (the sweep's flow-difference threshold) is ignored;
        this engine bans on its configured share-ratio floor.
        """
        r = self.ban_ratio
        return (r - 1.0) / (r + 1.0)

    def explain_components(self, node, subject: PeerId) -> Dict[str, object]:
        up, down = self.evidence_flows(node, subject)
        return {
            "upload_bytes": up,
            "download_bytes": down,
            "share_ratio": (up / down) if down > 0 else None,
            "ban_ratio": self.ban_ratio,
            "ban_score_threshold": self.effective_delta(0.0),
            "score": self.score(node, subject),
        }
