"""Invariant auditor: the subjective graph under arbitrary fault schedules.

BarterCast's safety argument does not depend on reliable delivery: no
matter which messages are lost, duplicated, delayed, or reordered, and
no matter how peers churn, a peer's subjective view must stay inside the
**ground-truth envelope**:

1. **Third-party edges are bounded by the larger honest claim.**  A
   materialized edge ``x → y`` in an honest network can never exceed
   ``max(uploaded_x(y), downloaded_y(x))`` taken from the parties' real
   private histories — redelivery and reordering may *stale* the view
   (totals only grow, so a late copy carries a smaller-or-equal total)
   but can never inflate it.  This is exactly the property the
   equal-timestamp tie rule in
   :meth:`~repro.core.sharedhistory.SubjectiveSharedHistory.ingest`
   protects: ties keep the max, so arrival order cannot matter.
2. **Owner-incident edges come only from private history.**  Whatever
   the fault schedule does, an edge touching the view's owner must equal
   the owner's own accounting, byte for byte.
3. **Reputations stay inside the engine's declared codomain** — the
   open interval (−1, 1) for the arctan-scaled engines (BarterCast,
   differential gossip), the closed [−1, 1] for ratio credit — and are
   never NaN.
4. **Recorded lineage reconstructs the view** (only when the run
   recorded provenance): for every materialized third-party edge, the
   max over the live claims' lineage values must equal the edge
   capacity byte for byte, every individual lineage value must itself
   fit the honest envelope, and the delivery metadata must be sane
   (``received_at ≥ reported_at``, gossip hop count 1).  This is the
   cross-check that the explanation ``repro explain`` prints is the
   view the node actually acts on, not a parallel bookkeeping that
   could drift.

The auditor checks all of these for one node or a whole simulation and
returns human-readable violation strings (empty list = invariants hold).
The fault sweep asserts on it after every run, and the property tests in
``tests/test_faults.py`` drive it over random fault schedules.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from repro.core.history import PrivateHistory
from repro.core.node import BarterCastNode

__all__ = ["max_honest_claim", "audit_node", "audit_simulation"]

PeerId = Hashable

#: Relative slack for float accumulation differences between the
#: histories' running totals and the graph's materialized capacities.
REL_EPS = 1e-9


def max_honest_claim(
    histories: Mapping[PeerId, PrivateHistory], src: PeerId, dst: PeerId
) -> float:
    """The largest claim honest parties could make about edge ``src → dst``.

    Either endpoint may report the edge: ``src`` as its upload to
    ``dst``, ``dst`` as its download from ``src``.  For honest peers the
    two agree; the envelope takes the max so it is also valid mid-round
    when one side's total is momentarily ahead in gossip.
    """
    up = 0.0
    down = 0.0
    h_src = histories.get(src)
    if h_src is not None:
        up = h_src.get(dst).uploaded
    h_dst = histories.get(dst)
    if h_dst is not None:
        down = h_dst.get(src).downloaded
    return max(up, down)


def audit_node(
    node: BarterCastNode,
    histories: Mapping[PeerId, PrivateHistory],
    rep_targets: Optional[Sequence[PeerId]] = None,
) -> List[str]:
    """Audit one node's subjective view against the ground-truth envelope.

    Parameters
    ----------
    node:
        The node whose subjective graph and reputations are audited.
    histories:
        Ground-truth private histories per peer (in the simulators these
        are the nodes' own histories — transfer accounting writes both
        sides, so they *are* the realized transfer totals).
    rep_targets:
        Peers whose reputation to range-check; defaults to every other
        peer in ``histories``.

    Returns the list of violation descriptions (empty = clean).
    """
    owner = node.peer_id
    violations: List[str] = []
    own = histories.get(owner, node.history)
    for src, dst, capacity in node.graph.edges():
        if capacity <= 0.0:
            continue
        if src == owner or dst == owner:
            expected = own.get(dst).uploaded if src == owner else own.get(src).downloaded
            if abs(capacity - expected) > REL_EPS * max(1.0, expected):
                violations.append(
                    f"owner-incident edge {src!r}->{dst!r} of {owner!r} is "
                    f"{capacity:.1f}, private history says {expected:.1f}"
                )
            continue
        bound = max_honest_claim(histories, src, dst)
        if capacity > bound * (1.0 + REL_EPS) + REL_EPS:
            violations.append(
                f"edge {src!r}->{dst!r} in view of {owner!r} is {capacity:.1f}, "
                f"exceeds the honest envelope {bound:.1f}"
            )
    if rep_targets is None:
        rep_targets = [p for p in histories if p != owner]
    # Invariant 3 is range-checked against the *engine's* declared
    # codomain: the arctan-scaled engines live in the open interval
    # (−1, 1), the ratio engine legitimately reaches ±1 (a pure leecher
    # is exactly −1), which its closed bounds declare.  A NaN fails
    # either comparison, so "never NaN" is enforced for every engine.
    eng = node.engine
    lo, hi = eng.score_bounds
    closed = eng.bounds_closed
    for target in rep_targets:
        if target == owner:
            continue
        rep = node.reputation_of(target)
        ok = (lo <= rep <= hi) if closed else (lo < rep < hi)
        if not ok:
            interval = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
            violations.append(
                f"reputation R_{owner!r}({target!r}) = {rep} outside "
                f"{interval} ({eng.name} engine)"
            )
    if getattr(node.shared, "provenance_enabled", False):
        violations.extend(_audit_lineage(node, histories))
    return violations


def _audit_lineage(
    node: BarterCastNode, histories: Mapping[PeerId, PrivateHistory]
) -> List[str]:
    """Invariant 4: recorded lineage must reconstruct the subjective view.

    Only called when the node's shared history recorded provenance for
    the whole run, so every live third-party claim carries lineage and
    the max over lineage values must reproduce the materialized edge.
    """
    owner = node.peer_id
    violations: List[str] = []
    for src, dst, capacity in node.graph.edges():
        if capacity <= 0.0 or src == owner or dst == owner:
            continue
        lineage = node.shared.lineage_of(src, dst)
        if not lineage:
            violations.append(
                f"edge {src!r}->{dst!r} in view of {owner!r} is {capacity:.1f} "
                f"but carries no claim lineage"
            )
            continue
        reconstructed = max(entry.value for entry in lineage.values())
        if abs(reconstructed - capacity) > REL_EPS * max(1.0, capacity):
            violations.append(
                f"lineage of edge {src!r}->{dst!r} in view of {owner!r} "
                f"replays to {reconstructed:.1f}, graph says {capacity:.1f}"
            )
        bound = max_honest_claim(histories, src, dst)
        for reporter, entry in lineage.items():
            if entry.value > bound * (1.0 + REL_EPS) + REL_EPS:
                violations.append(
                    f"lineage claim by {reporter!r} on {src!r}->{dst!r} in "
                    f"view of {owner!r} is {entry.value:.1f}, exceeds the "
                    f"honest envelope {bound:.1f}"
                )
            if entry.received_at < entry.reported_at:
                violations.append(
                    f"lineage claim by {reporter!r} on {src!r}->{dst!r} in "
                    f"view of {owner!r} was received at {entry.received_at:.1f} "
                    f"before it was reported at {entry.reported_at:.1f}"
                )
            if entry.hops != 1:
                violations.append(
                    f"lineage claim by {reporter!r} on {src!r}->{dst!r} in "
                    f"view of {owner!r} has hop count {entry.hops}; gossip "
                    f"is never forwarded (expected 1)"
                )
    return violations


def audit_simulation(sim, max_rep_targets: int = 0) -> List[str]:
    """Audit every node of a :class:`~repro.bittorrent.simulator
    .CommunitySimulator` (or anything with ``.nodes: {pid: node}``).

    ``max_rep_targets`` bounds the per-node reputation range checks
    (0 = check every pair; the graph envelope is always checked fully).
    """
    histories: Dict[PeerId, PrivateHistory] = {
        pid: node.history for pid, node in sim.nodes.items()
    }
    violations: List[str] = []
    for pid in sorted(sim.nodes):
        node = sim.nodes[pid]
        targets: Optional[Sequence[PeerId]] = None
        if max_rep_targets > 0:
            targets = [p for p in sorted(histories, key=repr) if p != pid][
                :max_rep_targets
            ]
        violations.extend(audit_node(node, histories, rep_targets=targets))
    return violations
