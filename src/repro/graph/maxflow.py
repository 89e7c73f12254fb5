"""The 2-hop maxflow kernel.

The paper's Algorithm 1 is Ford–Fulkerson over the subjective
:class:`~repro.graph.transfer_graph.TransferGraph` (edge weights are
aggregated bytes, used as capacities), restricted to augmenting paths of
at most two edges ("our implementation only regards paths with a maximum
length of two").  That restriction has a closed form::

    maxflow2(s, t) = c(s, t) + sum over v != s, t of min(c(s, v), c(v, t))

Correctness argument: every augmenting path of length <= 2 is either the
direct edge ``s->t`` or ``s->v->t`` for a distinct intermediate ``v``.
Distinct 2-hop paths share no edges, and residual *reverse* edges can
never participate: a reverse edge into ``s`` or out of ``t`` cannot lie
on a simple s->t path, and a reverse edge ``s->v`` (created by flow
``v->s``) would require an earlier augmenting path ending in ``s``, which
does not exist.  Hence the bounded problem decomposes per intermediate
node and the closed form is exact.  It costs O(min in/out degree) per
query and is written down once, in :func:`two_hop_flow`; the scalar
kernel (:func:`maxflow_two_hop`), the pair, the batch kernel
(:func:`maxflow_two_hop_batch`) and the path attribution
(:func:`two_hop_paths`) all call that one function.  The iterative
Ford–Fulkerson it is checked against (exact and hop-bounded) is the
reference model of the tests (``tests/model.py``), not code a run calls.

Path attribution (:func:`two_hop_paths`)
----------------------------------------
:func:`two_hop_paths` is :func:`maxflow_two_hop` that also records the
paths it summed as :class:`FlowPath` entries (path nodes, routed flow,
bottleneck edge, per-edge residual capacities).  The decomposition is *exact and
unique*: the closed form routes ``c(s,t)`` on the direct edge and
``min(c(s,v), c(v,t))`` through each intermediary ``v``, and because
distinct ≤2-hop paths are edge-disjoint (see above), the recorded path
flows always sum to the flow value and removing one intermediary's path
gives the exact flow of the graph without it — leave-one-out deltas need
no re-solve (:func:`leave_one_out_values`).
Both compute the value with the same function, so it is the same bits
with or without paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.graph.transfer_graph import TransferGraph

__all__ = [
    "FlowPath",
    "FlowResult",
    "maxflow_two_hop",
    "maxflow_two_hop_pair",
    "maxflow_two_hop_batch",
    "two_hop_flow",
    "two_hop_paths",
    "leave_one_out_values",
    "snapshot_kernel_invocations",
    "kernel_invocations_delta",
]

PeerId = Hashable
Edge = Tuple[PeerId, PeerId]

#: Process-wide kernel invocation counters (always-on: one dict increment
#: per kernel call, negligible next to the kernel itself).  The simulator
#: takes the delta over a run and publishes it as ``rep.kernel.*`` gauges,
#: which is how worker-side kernel work reaches the parent under
#: ``--jobs N``.  A batch counts one call and, apart, its targets.
KERNEL_INVOCATIONS: Dict[str, int] = dict.fromkeys(
    (
        "maxflow_two_hop",
        "maxflow_two_hop_batch",
        "maxflow_two_hop_batch_targets",
    ),
    0,
)


def snapshot_kernel_invocations() -> Dict[str, int]:
    """An immutable-by-copy snapshot of the counters, for later deltas.

    Pair with :func:`kernel_invocations_delta` to attribute kernel calls
    to one section of work (a simulation run, a sweep task) without
    resetting the process-wide totals.
    """
    return dict(KERNEL_INVOCATIONS)


def kernel_invocations_delta(baseline: Mapping[str, int]) -> Dict[str, int]:
    """Per-kernel calls since ``baseline`` (a prior snapshot).

    A key added after the snapshot counts from zero.  Only non-zero
    deltas are returned.
    """
    return {
        key: count - baseline.get(key, 0)
        for key, count in KERNEL_INVOCATIONS.items()
        if count != baseline.get(key, 0)
    }


@dataclass(frozen=True)
class FlowPath:
    """One augmenting path of a recorded flow decomposition.

    Attributes
    ----------
    nodes:
        The path vertices, source first, sink last (``(s, t)`` for the
        direct edge, ``(s, v, t)`` for a 2-hop path via ``v``).
    flow:
        Bytes routed along this path.
    bottleneck:
        The capacity-limiting edge (the first edge attaining the path's
        bottleneck residual at selection time).
    residuals:
        Residual capacity of each path edge *after* this path's flow was
        routed (same order as the edges of ``nodes``); the bottleneck
        edge's entry is 0 up to float rounding.
    """

    nodes: Tuple[PeerId, ...]
    flow: float
    bottleneck: Edge
    residuals: Tuple[float, ...]

    def to_json(self) -> dict:
        """JSON-safe rendering for ``--export``."""
        return {
            "nodes": list(self.nodes),
            "flow": self.flow,
            "bottleneck": list(self.bottleneck),
            "residuals": list(self.residuals),
        }


@dataclass
class FlowResult:
    """Outcome of a maxflow computation.

    Attributes
    ----------
    value:
        The maximum flow from source to sink (bytes).
    source, sink:
        The query endpoints.
    augmenting_paths:
        Number of recorded paths (0 unless the result came from
        :func:`two_hop_paths`).
    paths:
        The recorded path decomposition; empty unless the result came
        from :func:`two_hop_paths`.  The path flows sum to ``value``
        exactly (see module docstring).
    """

    value: float
    source: PeerId
    sink: PeerId
    augmenting_paths: int = 0
    paths: Tuple[FlowPath, ...] = ()


def leave_one_out_values(result: FlowResult) -> Dict[PeerId, float]:
    """Flow value without each intermediary, from recorded paths alone.

    Returns ``{v: flow value if v were removed}`` for every interior
    vertex of every recorded path.  No re-solve happens: each
    intermediary's contribution is the sum of the flows of the paths
    passing through it.  This is **exact** — distinct ≤2-hop paths are
    edge-disjoint, so deleting ``v`` removes exactly its own paths and
    frees no capacity elsewhere.

    Raises
    ------
    ValueError
        If ``result`` carries no recorded paths but has nonzero value
        (i.e. it did not come from :func:`two_hop_paths`).
    """
    if not result.paths and result.value != 0.0:
        raise ValueError("FlowResult has no recorded paths (not from two_hop_paths?)")
    through: Dict[PeerId, float] = {}
    for path in result.paths:
        for v in path.nodes[1:-1]:
            through[v] = through.get(v, 0.0) + path.flow
    return {v: result.value - f for v, f in through.items()}


def two_hop_flow(
    out_s: Mapping[PeerId, float],
    in_t: Mapping[PeerId, float],
    sink: PeerId,
    via: Optional[List[PeerId]] = None,
) -> float:
    """The closed form, defined once: ``c(s,t) + Σ_v min(c(s,v), c(v,t))``.

    ``out_s`` is ``successors(s)`` and ``in_t`` is ``predecessors(t)``;
    both are empty for an absent node, which makes the flow 0.0.  The
    intermediaries are exactly the keys the two views share: a graph
    stores no self-edge, so neither ``s`` nor ``t`` is among them, and no
    zero-weight edge, so every shared key carries flow — one C-level hash
    intersection finds them all.  Float addition is not associative, so
    two or more terms are added in the iteration order of the smaller
    view (``out_s`` on a tie); every caller gets the same bits.

    ``via``, when given, receives the intermediaries in summation order.
    """
    total = out_s.get(sink, 0.0)
    common = out_s.keys() & in_t.keys()
    if common:
        if len(common) > 1:
            walk = out_s if len(out_s) <= len(in_t) else in_t
            common = [v for v in walk if v in common]
        for v in common:
            c_sv = out_s[v]
            c_vt = in_t[v]
            # ``min`` without the builtin call: same operand on a tie.
            total += c_sv if c_sv <= c_vt else c_vt
        if via is not None:
            via.extend(common)
    return total


def maxflow_two_hop_pair(
    graph: TransferGraph, owner: PeerId, peer: PeerId
) -> Tuple[float, float]:
    """``(maxflow2(peer → owner), maxflow2(owner → peer))``: the two
    :func:`maxflow_two_hop` calls behind one reputation, without their
    :class:`FlowResult` wrappers, and counted as those two calls.
    """
    if owner == peer:
        raise ValueError("source and sink must differ")
    KERNEL_INVOCATIONS["maxflow_two_hop"] += 2
    successors = graph.successors
    predecessors = graph.predecessors
    return (
        two_hop_flow(successors(peer), predecessors(owner), owner),
        two_hop_flow(successors(owner), predecessors(peer), peer),
    )


def maxflow_two_hop(graph: TransferGraph, source: PeerId, sink: PeerId) -> FlowResult:
    """Closed-form 2-hop bounded maxflow (BarterCast's online kernel):
    :func:`two_hop_flow` over the source's out-neighbourhood and the
    sink's in-neighbourhood."""
    if source == sink:
        raise ValueError("source and sink must differ")
    KERNEL_INVOCATIONS["maxflow_two_hop"] += 1
    value = two_hop_flow(graph.successors(source), graph.predecessors(sink), sink)
    return FlowResult(value=value, source=source, sink=sink)


def two_hop_paths(graph: TransferGraph, source: PeerId, sink: PeerId) -> FlowResult:
    """:func:`maxflow_two_hop` with the (unique, exact) decomposition it
    summed in ``paths`` — the direct edge first, then one path per
    intermediary in summation order — counted as that one call.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    KERNEL_INVOCATIONS["maxflow_two_hop"] += 1
    out_s = graph.successors(source)
    in_t = graph.predecessors(sink)
    via: List[PeerId] = []
    value = two_hop_flow(out_s, in_t, sink, via)
    paths: List[FlowPath] = []
    c_st = out_s.get(sink, 0.0)
    if c_st:
        # The direct edge always routes its full capacity.
        paths.append(
            FlowPath(
                nodes=(source, sink),
                flow=c_st,
                bottleneck=(source, sink),
                residuals=(0.0,),
            )
        )
    for v in via:
        c_sv = out_s[v]
        c_vt = in_t[v]
        if c_sv <= c_vt:
            f, bottleneck = c_sv, (source, v)
        else:
            f, bottleneck = c_vt, (v, sink)
        paths.append(
            FlowPath(
                nodes=(source, v, sink),
                flow=f,
                bottleneck=bottleneck,
                residuals=(c_sv - f, c_vt - f),
            )
        )
    return FlowResult(
        value=value,
        source=source,
        sink=sink,
        augmenting_paths=len(paths),
        paths=tuple(paths),
    )


def maxflow_two_hop_batch(
    graph: TransferGraph, owner: PeerId, targets: Iterable[PeerId]
) -> Dict[PeerId, Tuple[float, float]]:
    """``{j: (maxflow2(j → owner), maxflow2(owner → j))}`` for every target.

    The rank/ban policies evaluate ``R_i(j)`` for every unchoke candidate
    every choke round.  The owner's two views are fetched once for the
    whole batch and handed, with each target's views, to
    :func:`two_hop_flow` — the same function on the same views as the
    scalar kernel, so each value is the same bits as a
    :func:`maxflow_two_hop` call.  Duplicates and ``owner`` itself are
    skipped.  Values only: :func:`two_hop_paths` gives a path
    decomposition.
    """
    KERNEL_INVOCATIONS["maxflow_two_hop_batch"] += 1
    out_i = graph.successors(owner)
    in_i = graph.predecessors(owner)
    successors = graph.successors
    predecessors = graph.predecessors
    results: Dict[PeerId, Tuple[float, float]] = {}
    for j in targets:
        if j != owner and j not in results:
            results[j] = (
                two_hop_flow(successors(j), in_i, owner),
                two_hop_flow(out_i, predecessors(j), j),
            )
    KERNEL_INVOCATIONS["maxflow_two_hop_batch_targets"] += len(results)
    return results
