"""Maxflow kernels.

Three implementations of maximum flow over a :class:`~repro.graph
.transfer_graph.TransferGraph`, all taking edge weights (aggregated bytes)
as capacities:

``ford_fulkerson``
    The paper's Algorithm 1: classic Ford–Fulkerson with depth-first
    augmenting-path search on the residual network.  Exact maximum flow.

``bounded_ford_fulkerson``
    Ford–Fulkerson where the DFS only considers augmenting paths of at most
    ``max_hops`` edges.  With ``max_hops=2`` this is the computation the
    paper describes ("our implementation only regards paths with a maximum
    length of two").

``maxflow_two_hop``
    Closed form for the 2-hop bounded flow::

        maxflow2(s, t) = c(s, t) + sum over v != s, t of min(c(s, v), c(v, t))

    Correctness argument: every augmenting path of length <= 2 is either the
    direct edge ``s->t`` or ``s->v->t`` for a distinct intermediate ``v``.
    Distinct 2-hop paths share no edges, and residual *reverse* edges can
    never participate: a reverse edge into ``s`` or out of ``t`` cannot lie
    on a simple s->t path, and a reverse edge ``s->v`` (created by flow
    ``v->s``) would require an earlier augmenting path ending in ``s``,
    which does not exist.  Hence the bounded problem decomposes per
    intermediate node and the closed form is exact.  This is O(min in/out
    degree) per query and is the kernel BarterCast uses online.  It is
    written down once, in :func:`two_hop_flow`; the scalar kernel, the
    batch kernel (:mod:`repro.graph.batch`) and the path-recording form
    all call that one function.

All kernels return a :class:`FlowResult` carrying the flow value and, for
the iterative kernels, the per-edge flow assignment for inspection.

Path attribution (``record_paths=True``)
----------------------------------------
Every kernel can additionally record the augmenting paths it applied as
:class:`FlowPath` entries (path nodes, routed flow, bottleneck edge,
per-edge residual capacities).  For the 2-hop kernels the decomposition
is *exact and unique*: the closed form routes ``c(s,t)`` on the direct
edge and ``min(c(s,v), c(v,t))`` through each intermediary ``v``, and
because distinct ≤2-hop paths are edge-disjoint (module docstring), the
recorded path flows always sum to the flow value and removing one
intermediary's path gives the exact flow of the graph without it —
leave-one-out deltas need no re-solve (:func:`leave_one_out_values`).
Recording is off by default; the 2-hop value is computed by the same
function either way, so it is the same bits with or without paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.graph.transfer_graph import TransferGraph

__all__ = [
    "FlowPath",
    "FlowResult",
    "ford_fulkerson",
    "bounded_ford_fulkerson",
    "maxflow_two_hop",
    "maxflow_two_hop_pair",
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
#: ``--jobs N``; :mod:`repro.graph.batch` registers its own keys here too.
KERNEL_INVOCATIONS: Dict[str, int] = dict.fromkeys(
    ("ford_fulkerson", "bounded_ford_fulkerson", "maxflow_two_hop"), 0
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

    Kernels registered after the snapshot (e.g. the batch kernel key on
    first use) count from zero.  Only non-zero deltas are returned.
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
    flows:
        Per-edge flow assignment ``{(i, j): f}`` with ``f > 0``; empty for
        the closed-form kernel (which never materializes flows).
    augmenting_paths:
        Number of augmenting paths applied (0 for the closed form).
    paths:
        The recorded path decomposition; empty unless the kernel was
        called with ``record_paths=True``.  For ≤2-hop kernels the path
        flows sum to ``value`` exactly (see module docstring).
    """

    value: float
    source: PeerId
    sink: PeerId
    flows: Dict[Edge, float] = field(default_factory=dict)
    augmenting_paths: int = 0
    paths: Tuple[FlowPath, ...] = ()


def leave_one_out_values(result: FlowResult) -> Dict[PeerId, float]:
    """Flow value without each intermediary, from recorded paths alone.

    Returns ``{v: flow value if v were removed}`` for every interior
    vertex of every recorded path.  No re-solve happens: each
    intermediary's contribution is the sum of the flows of the paths
    passing through it.  For ≤2-hop decompositions this is **exact** —
    distinct paths are edge-disjoint, so deleting ``v`` removes exactly
    its own paths and frees no capacity elsewhere.  For longer-hop
    results (``ford_fulkerson`` with ``record_paths=True``) removing a
    vertex may allow re-routing, so the returned value is only a lower
    bound on the true flow without ``v``.

    Raises
    ------
    ValueError
        If ``result`` carries no recorded paths but has nonzero value
        (i.e. the kernel was not asked to record).
    """
    if not result.paths and result.value != 0.0:
        raise ValueError("FlowResult has no recorded paths (record_paths=False?)")
    through: Dict[PeerId, float] = {}
    for path in result.paths:
        for v in path.nodes[1:-1]:
            through[v] = through.get(v, 0.0) + path.flow
    return {v: result.value - f for v, f in through.items()}


class _Residual:
    """Residual network for Ford–Fulkerson.

    Stores residual capacities ``r[i][j]`` starting from the original
    capacities; pushing flow ``f`` on ``(i, j)`` decrements ``r[i][j]`` and
    increments ``r[j][i]`` (lines 8–9 of the paper's Algorithm 1).
    """

    def __init__(self, graph: TransferGraph) -> None:
        self.r: Dict[PeerId, Dict[PeerId, float]] = {}
        for i, j, w in graph.edges():
            self.r.setdefault(i, {})[j] = self.r.get(i, {}).get(j, 0.0) + w
            self.r.setdefault(j, {}).setdefault(i, 0.0)

    def push(self, path: List[PeerId], amount: float) -> None:
        for a, b in zip(path, path[1:]):
            self.r[a][b] -= amount
            self.r[b][a] = self.r[b].get(a, 0.0) + amount

    def bottleneck(self, path: List[PeerId]) -> float:
        return min(self.r[a][b] for a, b in zip(path, path[1:]))

    def find_path_dfs(
        self, source: PeerId, sink: PeerId, max_hops: Optional[int], eps: float
    ) -> Optional[List[PeerId]]:
        """Depth-first search for an augmenting path with residual > eps.

        ``max_hops`` limits the number of edges on the path (None = no
        limit).  Iterative DFS to avoid recursion limits on long chains.
        """
        if source not in self.r:
            return None
        # Stack of (node, path_so_far); visited set prevents cycles.
        stack: List[Tuple[PeerId, List[PeerId]]] = [(source, [source])]
        visited = {source}
        while stack:
            node, path = stack.pop()
            if max_hops is not None and len(path) - 1 >= max_hops:
                continue
            for nbr, cap in self.r.get(node, {}).items():
                if cap <= eps or nbr in visited:
                    continue
                new_path = path + [nbr]
                if nbr == sink:
                    return new_path
                visited.add(nbr)
                stack.append((nbr, new_path))
        return None


def _run_ford_fulkerson(
    graph: TransferGraph,
    source: PeerId,
    sink: PeerId,
    max_hops: Optional[int],
    eps: float,
    record_paths: bool = False,
) -> FlowResult:
    if source == sink:
        raise ValueError("source and sink must differ")
    result = FlowResult(value=0.0, source=source, sink=sink)
    if not graph.has_node(source) or not graph.has_node(sink):
        return result
    residual = _Residual(graph)
    flows: Dict[Edge, float] = {}
    recorded: List[FlowPath] = []
    while True:
        path = residual.find_path_dfs(source, sink, max_hops, eps)
        if path is None:
            break
        amount = residual.bottleneck(path)
        residual.push(path, amount)
        if record_paths:
            edges = list(zip(path, path[1:]))
            after = tuple(residual.r[a][b] for a, b in edges)
            # First edge whose post-push residual hit (near) zero is the
            # bottleneck that limited this augmentation.
            bottleneck = edges[min(range(len(after)), key=after.__getitem__)]
            recorded.append(
                FlowPath(
                    nodes=tuple(path),
                    flow=amount,
                    bottleneck=bottleneck,
                    residuals=after,
                )
            )
        for a, b in zip(path, path[1:]):
            # Net flow bookkeeping: pushing on (a, b) cancels flow on (b, a)
            # first (the "reverse direction" decrease of Algorithm 1 line 9).
            reverse = flows.get((b, a), 0.0)
            if reverse >= amount:
                flows[(b, a)] = reverse - amount
                if flows[(b, a)] == 0.0:
                    del flows[(b, a)]
            else:
                if reverse > 0:
                    del flows[(b, a)]
                flows[(a, b)] = flows.get((a, b), 0.0) + amount - reverse
        result.value += amount
        result.augmenting_paths += 1
    result.flows = flows
    if record_paths:
        result.paths = tuple(recorded)
    return result


def ford_fulkerson(
    graph: TransferGraph,
    source: PeerId,
    sink: PeerId,
    *,
    eps: float = 1e-9,
    record_paths: bool = False,
) -> FlowResult:
    """Exact maximum flow via Ford–Fulkerson with DFS path search.

    This is Algorithm 1 of the paper.  ``eps`` is the minimum residual
    capacity an edge must have to be traversed; with byte-valued capacities
    the default is effectively "any positive capacity".

    ``record_paths`` attaches the applied augmenting paths to the result;
    note that for unbounded hops the decomposition is not unique and
    leave-one-out deltas derived from it are only lower bounds.

    Complexity: O(E * f / eps) in pathological real-valued cases, but
    transfer graphs have integral byte weights in practice and the DFS
    terminates quickly on the small local graphs BarterCast builds.
    """
    KERNEL_INVOCATIONS["ford_fulkerson"] += 1
    return _run_ford_fulkerson(
        graph, source, sink, max_hops=None, eps=eps, record_paths=record_paths
    )


def bounded_ford_fulkerson(
    graph: TransferGraph,
    source: PeerId,
    sink: PeerId,
    *,
    max_hops: int = 2,
    eps: float = 1e-9,
    record_paths: bool = False,
) -> FlowResult:
    """Maximum flow over augmenting paths of at most ``max_hops`` edges.

    With ``max_hops=2`` this matches the deployed BarterCast computation;
    larger bounds trade accuracy against cost (see the path-length ablation
    bench).  Note that for ``max_hops >= 3`` the greedy path-limited
    Ford–Fulkerson is a heuristic — the length-bounded maxflow problem is
    NP-hard in general — but for ``max_hops <= 2`` it is exact (see module
    docstring).
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    KERNEL_INVOCATIONS["bounded_ford_fulkerson"] += 1
    return _run_ford_fulkerson(
        graph, source, sink, max_hops=max_hops, eps=eps, record_paths=record_paths
    )


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


def maxflow_two_hop(
    graph: TransferGraph,
    source: PeerId,
    sink: PeerId,
    *,
    record_paths: bool = False,
) -> FlowResult:
    """Closed-form 2-hop bounded maxflow (BarterCast's online kernel).

    :func:`two_hop_flow` over the source's out-neighbourhood and the
    sink's in-neighbourhood.  ``record_paths`` additionally returns the
    (unique, exact) 2-hop path decomposition; the value is the same bits
    either way.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    KERNEL_INVOCATIONS["maxflow_two_hop"] += 1
    if record_paths:
        value, paths = two_hop_paths(graph, source, sink)
    else:
        value = two_hop_flow(graph.successors(source), graph.predecessors(sink), sink)
        paths = ()
    return FlowResult(
        value=value, source=source, sink=sink, augmenting_paths=len(paths), paths=paths
    )


def two_hop_paths(
    graph: TransferGraph, source: PeerId, sink: PeerId
) -> Tuple[float, Tuple[FlowPath, ...]]:
    """``(value, paths)``: :func:`two_hop_flow` plus the decomposition it
    summed — the direct edge first, then one path per intermediary in
    summation order: :func:`maxflow_two_hop`'s ``record_paths`` form,
    which maintains the invocation counter.
    """
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
    return value, tuple(paths)
