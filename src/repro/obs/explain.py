"""Explain a subjective reputation: flow decomposition + claim lineage.

``R_i(j)`` is an arctan of ``maxflow(j, i) − maxflow(i, j)`` on *i*'s
subjective graph.  This module decomposes the two flows into their
augmenting paths (:func:`~repro.graph.maxflow.two_hop_paths`), attaches
the lineage of every gossip-learned claim backing a path edge (recorded by
:class:`~repro.obs.provenance.ProvenanceRecorder` when the simulation
ran with provenance on), and computes leave-one-out reputation deltas —
what ``R_i(j)`` would be without each intermediary peer — from the
recorded paths, with no re-solve.

The decomposition and the leave-one-out deltas are exact: ≤2-hop paths
are edge-disjoint per intermediary (DESIGN.md §12).

The module is deliberately decoupled from :mod:`repro.core`: it duck-
types the node (``peer_id``, ``graph``, ``config.metric``, ``shared``),
so importing it never drags the simulator stack in (and no import cycle
with :mod:`repro.obs` can form).

Entry points: :func:`explain_reputation` builds an :class:`Explanation`,
:func:`render_explanation` renders it as text for the ``repro explain``
subcommand, and :meth:`Explanation.to_json` backs ``--export``.

When the CLI is asked for more than one reputation mechanism
(``repro explain --engine bartercast,ratio``), :func:`explain_engines`
evaluates every requested :class:`~repro.core.engines.base
.ReputationEngine` against the *same* subjective state and
:func:`render_engine_comparison` prints the side-by-side verdicts —
the direct answer to "why did mechanism A ban this peer when B
didn't": each mechanism's score, its own ban threshold (the ratio
engine bans on a share-ratio floor, not the sweep's δ), and the
components behind the score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.graph.maxflow import FlowResult, leave_one_out_values, two_hop_paths
from repro.obs.provenance import ClaimLineage, _json_safe

__all__ = [
    "EdgeEvidence",
    "EngineExplanation",
    "Explanation",
    "explain_engines",
    "explain_reputation",
    "render_engine_comparison",
    "render_explanation",
    "top_subjects",
]

PeerId = Hashable

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class EdgeEvidence:
    """Why the evaluator believes one directed edge of a flow path.

    ``origin`` is ``"private"`` for edges incident to the evaluator
    (authoritative, from its own transfer accounting — hop count 0) and
    ``"gossip"`` for third-party edges, whose live claims' lineage is
    listed in ``lineage`` (empty when the run recorded no provenance).
    """

    src: PeerId
    dst: PeerId
    value: float
    origin: str
    lineage: Tuple[ClaimLineage, ...] = ()

    def to_json(self) -> dict:
        return {
            "src": _json_safe(self.src),
            "dst": _json_safe(self.dst),
            "value": self.value,
            "origin": self.origin,
            "lineage": [entry.to_json() for entry in self.lineage],
        }


@dataclass
class Explanation:
    """The full decomposition of one subjective reputation ``R_i(j)``."""

    evaluator: PeerId
    subject: PeerId
    reputation: float
    inflow: float
    outflow: float
    unit_bytes: float
    in_result: FlowResult
    out_result: FlowResult
    #: ``{intermediary: R_i(j) recomputed without it}`` from recorded paths.
    leave_one_out: Dict[PeerId, float]
    #: Evidence for every distinct edge appearing on any recorded path.
    evidence: List[EdgeEvidence]

    def to_json(self) -> dict:
        """JSON document for ``repro explain --export``."""
        return {
            "evaluator": _json_safe(self.evaluator),
            "subject": _json_safe(self.subject),
            "reputation": self.reputation,
            "inflow_bytes": self.inflow,
            "outflow_bytes": self.outflow,
            "unit_bytes": self.unit_bytes,
            "kernel": "two_hop",
            "exact": True,
            "in_paths": [p.to_json() for p in self.in_result.paths],
            "out_paths": [p.to_json() for p in self.out_result.paths],
            "leave_one_out": {
                str(_json_safe(v)): rep for v, rep in self.leave_one_out.items()
            },
            "evidence": [e.to_json() for e in self.evidence],
        }


def explain_reputation(node, subject: PeerId) -> Explanation:
    """Decompose ``R_node(subject)`` on the node's subjective graph.

    ``node`` is any object with ``peer_id``, ``graph``, ``shared`` and
    ``config.metric`` (a :class:`~repro.core.node.BarterCastNode` in
    practice).  Claim lineage is attached when the node's shared history
    recorded provenance; the flow decomposition works either way.
    """
    me = node.peer_id
    if subject == me:
        raise ValueError("a peer has no reputation at itself")
    metric = node.config.metric
    in_result = two_hop_paths(node.graph, subject, me)
    out_result = two_hop_paths(node.graph, me, subject)
    inflow, outflow = in_result.value, out_result.value
    reputation = metric.scale(inflow - outflow)

    in_loo = leave_one_out_values(in_result)
    out_loo = leave_one_out_values(out_result)
    leave_one_out = {
        v: metric.scale(in_loo.get(v, inflow) - out_loo.get(v, outflow))
        for v in sorted(set(in_loo) | set(out_loo), key=repr)
    }

    evidence: List[EdgeEvidence] = []
    seen_edges = set()
    for result in (in_result, out_result):
        for path in result.paths:
            for edge in zip(path.nodes, path.nodes[1:]):
                if edge in seen_edges:
                    continue
                seen_edges.add(edge)
                src, dst = edge
                if src == me or dst == me:
                    evidence.append(
                        EdgeEvidence(
                            src=src,
                            dst=dst,
                            value=node.graph.capacity(src, dst),
                            origin="private",
                        )
                    )
                else:
                    lineage = node.shared.lineage_of(src, dst)
                    evidence.append(
                        EdgeEvidence(
                            src=src,
                            dst=dst,
                            value=node.graph.capacity(src, dst),
                            origin="gossip",
                            lineage=tuple(
                                lineage[r] for r in sorted(lineage, key=repr)
                            ),
                        )
                    )
    return Explanation(
        evaluator=me,
        subject=subject,
        reputation=reputation,
        inflow=inflow,
        outflow=outflow,
        unit_bytes=metric.unit_bytes,
        in_result=in_result,
        out_result=out_result,
        leave_one_out=leave_one_out,
        evidence=evidence,
    )


@dataclass
class EngineExplanation:
    """One mechanism's verdict on one subject, from shared evidence.

    Every engine reads the same subjective graph, so differing verdicts
    come from the mechanisms themselves — which is exactly what the
    comparison is for.  ``threshold`` is the engine's *effective* ban
    threshold (the sweep δ pushed through
    :meth:`~repro.core.engines.base.ReputationEngine.effective_delta`),
    and ``banned`` is the resulting verdict ``score < threshold``.
    """

    engine: str
    evaluator: PeerId
    subject: PeerId
    score: float
    threshold: float
    banned: bool
    inflow: float
    outflow: float
    components: Dict[str, object]

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "evaluator": _json_safe(self.evaluator),
            "subject": _json_safe(self.subject),
            "score": self.score,
            "threshold": self.threshold,
            "banned": self.banned,
            "inflow_bytes": self.inflow,
            "outflow_bytes": self.outflow,
            "components": {k: _json_safe(v) for k, v in self.components.items()},
        }


def explain_engines(
    node, subject: PeerId, engine_names, delta: float
) -> List[EngineExplanation]:
    """Evaluate ``subject`` under every named mechanism on ``node``'s state.

    The node's own engine answers through the node's cache; other
    mechanisms are built fresh and score the node directly (engines are
    stateless, so this never touches node state), so every engine scores
    the *same* subjective graph.  ``delta`` is the sweep-style ban
    threshold, translated per engine via ``effective_delta``.
    """
    from repro.core.engines import make_engine  # lazy: keep module import-light

    out: List[EngineExplanation] = []
    for name in engine_names:
        if name == node.engine.name:
            eng = node.engine
            score = node.reputation_of(subject)
        else:
            eng = make_engine(name)
            score = eng.score(node, subject)
        threshold = eng.effective_delta(delta)
        inflow, outflow = eng.evidence_flows(node, subject)
        out.append(
            EngineExplanation(
                engine=eng.name,
                evaluator=node.peer_id,
                subject=subject,
                score=score,
                threshold=threshold,
                banned=score < threshold,
                inflow=inflow,
                outflow=outflow,
                components=eng.explain_components(node, subject),
            )
        )
    return out


def top_subjects(node, candidates, k: int) -> List[PeerId]:
    """The ``k`` candidates with the largest ``|R_node(j)|``.

    Deterministic: ties break on peer-id representation.  Used by the
    CLI when ``--subject`` is omitted.
    """
    reps = node.reputations_of(candidates)
    scored = sorted(reps.items(), key=lambda it: (-abs(it[1]), repr(it[0])))
    return [j for j, _ in scored[: max(0, k)]]


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _mb(nbytes: float) -> str:
    return f"{nbytes / MB:.1f} MB"


def _path_line(path) -> str:
    route = " -> ".join(str(n) for n in path.nodes)
    if len(path.nodes) == 2:
        via = "direct"
    else:
        via = "via " + ", ".join(str(v) for v in path.nodes[1:-1])
    b_src, b_dst = path.bottleneck
    residual = ", ".join(_mb(r) for r in path.residuals)
    return (
        f"  {route:<24} {via:<12} {_mb(path.flow):>12}"
        f"   bottleneck {b_src}->{b_dst}, residuals [{residual}]"
    )


def _lineage_line(entry: ClaimLineage) -> str:
    msg = entry.msg_id
    if isinstance(msg, tuple) and len(msg) == 2:
        msg = f"{msg[0]}#{msg[1]}"
    return (
        f"      claim by {entry.reporter}: {_mb(entry.value)} "
        f"(msg {msg}, reported t={entry.reported_at:.0f}s, "
        f"received t={entry.received_at:.0f}s, hop {entry.hops}, "
        f"superseded {entry.superseded})"
    )


def render_explanation(expl: Explanation) -> str:
    """Human-readable rendering for the ``repro explain`` subcommand."""
    lines: List[str] = []
    i, j = expl.evaluator, expl.subject
    lines.append(f"== R_{i}({j}): {expl.reputation:+.4f} ==")
    lines.append(
        f"kernel two_hop | unit {_mb(expl.unit_bytes)} | "
        f"inflow {_mb(expl.inflow)} | outflow {_mb(expl.outflow)} | "
        f"diff {_mb(expl.inflow - expl.outflow)}"
    )
    lines.append("")
    for label, result in (
        (f"inflow maxflow({j} -> {i})", expl.in_result),
        (f"outflow maxflow({i} -> {j})", expl.out_result),
    ):
        lines.append(f"{label} = {_mb(result.value)} over {len(result.paths)} path(s):")
        if not result.paths:
            lines.append("  (no flow)")
        for path in result.paths:
            lines.append(_path_line(path))
        lines.append("")
    if expl.leave_one_out:
        lines.append("leave-one-out deltas from recorded paths (exact):")
        for v, rep in expl.leave_one_out.items():
            delta = rep - expl.reputation
            lines.append(
                f"  without {v}: R = {rep:+.4f} (delta {delta:+.4f})"
            )
        lines.append("")
    lines.append("edge evidence:")
    any_lineage = False
    for ev in expl.evidence:
        lines.append(
            f"  edge {ev.src}->{ev.dst} = {_mb(ev.value)} [{ev.origin}]"
        )
        for entry in ev.lineage:
            any_lineage = True
            lines.append(_lineage_line(entry))
    if not any_lineage and any(ev.origin == "gossip" for ev in expl.evidence):
        lines.append(
            "  (no claim lineage recorded — run the scenario with --provenance)"
        )
    return "\n".join(lines)


def _component_line(key: str, value: object) -> str:
    if key.endswith("_bytes") and isinstance(value, (int, float)):
        return f"    {key}: {_mb(float(value))}"
    if value is None:
        return f"    {key}: n/a"
    if isinstance(value, float):
        return f"    {key}: {value:+.4f}"
    return f"    {key}: {value}"


def render_engine_comparison(verdicts: List[EngineExplanation]) -> str:
    """Side-by-side mechanism verdicts for one (evaluator, subject) pair.

    Leads with the headline disagreement ("ratio bans 7, bartercast
    keeps it"), then one block per engine: score vs its own effective
    threshold, evidence totals, and the score decomposition.
    """
    if not verdicts:
        return ""
    i, j = verdicts[0].evaluator, verdicts[0].subject
    lines: List[str] = []
    banned = [v.engine for v in verdicts if v.banned]
    kept = [v.engine for v in verdicts if not v.banned]
    lines.append(f"-- mechanism verdicts on R_{i}({j}) --")
    if banned and kept:
        lines.append(
            f"  DISAGREEMENT: {', '.join(banned)} ban(s) {j}; "
            f"{', '.join(kept)} do(es) not"
        )
    elif banned:
        lines.append(f"  every mechanism bans {j}")
    else:
        lines.append(f"  no mechanism bans {j}")
    for v in verdicts:
        verdict = "BAN" if v.banned else "keep"
        op = "<" if v.banned else ">="
        lines.append(
            f"  [{v.engine}] {verdict}: score {v.score:+.4f} {op} "
            f"threshold {v.threshold:+.4f} | evidence in {_mb(v.inflow)} / "
            f"out {_mb(v.outflow)}"
        )
        for key, value in v.components.items():
            lines.append(_component_line(key, value))
    return "\n".join(lines)
