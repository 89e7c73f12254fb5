"""The directed transfer graph.

Nodes are peer identifiers (any hashable, typically ``int`` peer ids or
string permids); a directed edge ``(i, j)`` with weight ``w`` records that
``i`` is believed to have uploaded ``w`` bytes to ``j`` in total.

The graph is the *subjective* data structure at the centre of BarterCast:
each peer maintains its own instance built from its private history plus
records received in BarterCast messages.  Every record restates a total,
so the one write is :meth:`~TransferGraph.set_transfer` (overwrite an
edge's total; :meth:`~TransferGraph.store` is the same write without the
listeners below); reads (``successors``/``predecessors``/``capacity``) are
on the maxflow hot path.

Implementation: double adjacency dictionaries (
``out[i] -> {j: bytes}`` and ``in_[j] -> {i: bytes}``), giving O(1)
edge lookups in both directions and O(degree) neighbourhood scans, which is
exactly what the 2-hop maxflow closed form needs.

Change notification: consumers that cache derived values (the reputation
cache in :class:`~repro.core.node.BarterCastNode`) can :meth:`subscribe
<TransferGraph.subscribe>` an edge listener ``fn(src, dst)`` that fires on
every *effective* edge change — a write that leaves the stored weight
unchanged fires nothing, so subscribers learn which edges moved instead
of conservatively assuming everything did.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Tuple

__all__ = ["TransferGraph"]

PeerId = Hashable

#: Callback invoked with the endpoints of an edge whose weight changed.
EdgeListener = Callable[[PeerId, PeerId], None]


class TransferGraph:
    """A directed, weighted graph of aggregated byte transfers.

    Weights are non-negative floats (bytes).  Zero-weight edges are not
    stored: setting an edge to 0 removes it, so iteration only ever visits
    edges that can carry flow.

    Examples
    --------
    >>> g = TransferGraph()
    >>> g.set_transfer("a", "b", 1000)
    >>> g.set_transfer("a", "b", 1500)
    >>> g.capacity("a", "b")
    1500.0
    >>> g.capacity("b", "a")
    0.0
    """

    def __init__(self) -> None:
        self._out: Dict[PeerId, Dict[PeerId, float]] = {}
        self._in: Dict[PeerId, Dict[PeerId, float]] = {}
        self._listeners: List[EdgeListener] = []

    # ------------------------------------------------------------------
    # Change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener: EdgeListener) -> None:
        """Register ``listener(src, dst)`` to fire on every edge change.

        Listeners fire after the mutation is applied, once per directed
        edge whose stored weight actually changed (no-op writes are
        silent).  Listeners must not mutate the graph.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: PeerId) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}

    def set_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Overwrite the aggregate for edge ``(src, dst)``.

        Used when a received BarterCast record supersedes an older record
        for the same ordered pair (records carry totals, not deltas).
        Writing the value already stored is a no-op: no listener fires.
        """
        if self.store(src, dst, nbytes):
            for listener in self._listeners:
                listener(src, dst)

    def store(self, src: PeerId, dst: PeerId, nbytes: float) -> bool:
        """:meth:`set_transfer` without the listeners: returns whether the
        stored weight changed, and a caller that subscribed does for
        itself what its listener would have done."""
        if not nbytes >= 0:  # negative or NaN
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(f"self-transfer rejected for node {src!r}")
        # The ledger's hot write: endpoints are registered only when
        # missing (as ``add_node`` would).
        out = self._out
        row = out.get(src)
        if row is None:
            self.add_node(src)
            row = out[src]
        if dst not in out:
            self.add_node(dst)
        new = float(nbytes)
        old = row.get(dst, 0.0)
        if new == old:
            return False
        if new > 0:
            row[dst] = new
            self._in[dst][src] = new
        else:
            del row[dst]
            del self._in[dst][src]
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def capacity(self, src: PeerId, dst: PeerId) -> float:
        """Bytes uploaded by ``src`` to ``dst`` (0.0 if no edge)."""
        row = self._out.get(src)
        if row is None:
            return 0.0
        return row.get(dst, 0.0)

    def successors(self, node: PeerId) -> Mapping[PeerId, float]:
        """Read-only view of ``{dst: bytes}`` for edges out of ``node``."""
        return self._out.get(node, {})

    def predecessors(self, node: PeerId) -> Mapping[PeerId, float]:
        """Read-only view of ``{src: bytes}`` for edges into ``node``."""
        return self._in.get(node, {})

    def has_node(self, node: PeerId) -> bool:
        """Whether ``node`` is present."""
        return node in self._out

    def nodes(self) -> Iterator[PeerId]:
        """Iterate over all nodes."""
        return iter(self._out)

    def edges(self) -> Iterator[Tuple[PeerId, PeerId, float]]:
        """Iterate over ``(src, dst, bytes)`` triples."""
        for src, row in self._out.items():
            for dst, w in row.items():
                yield src, dst, w

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of positive-weight directed edges."""
        return sum(len(row) for row in self._out.values())

    def in_degree(self, node: PeerId) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._in.get(node, {}))

    def out_degree(self, node: PeerId) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._out.get(node, {}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TransferGraph nodes={self.num_nodes} edges={self.num_edges}>"
