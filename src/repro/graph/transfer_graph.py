"""The directed transfer graph.

Nodes are peer identifiers (any hashable, typically ``int`` peer ids or
string permids); a directed edge ``(i, j)`` with weight ``w`` records that
``i`` is believed to have uploaded ``w`` bytes to ``j`` in total.

The graph is the *subjective* data structure at the centre of BarterCast:
each peer maintains its own instance built from its private history plus
records received in BarterCast messages.  Operations are therefore
incremental (``add_transfer``/``set_transfer``) and read-heavy
(``successors``/``predecessors``/``capacity`` are on the maxflow hot path).

Implementation: double adjacency dictionaries (
``out[i] -> {j: bytes}`` and ``in_[j] -> {i: bytes}``), giving O(1)
edge lookups in both directions and O(degree) neighbourhood scans, which is
exactly what the 2-hop maxflow closed form needs.

Change notification: consumers that cache derived values (the reputation
cache in :class:`~repro.core.node.BarterCastNode`) can :meth:`subscribe
<TransferGraph.subscribe>` an edge listener ``fn(src, dst)`` that fires on
every *effective* edge change — a write that leaves the stored weight
unchanged fires nothing and does not bump :attr:`~TransferGraph.version`,
so subscribers learn which edges moved instead of conservatively assuming
everything did.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Tuple

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
    >>> g.add_transfer("a", "b", 1000)
    >>> g.add_transfer("a", "b", 500)
    >>> g.capacity("a", "b")
    1500.0
    >>> g.capacity("b", "a")
    0.0
    """

    def __init__(self) -> None:
        self._out: Dict[PeerId, Dict[PeerId, float]] = {}
        self._in: Dict[PeerId, Dict[PeerId, float]] = {}
        self._version = 0
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

    def unsubscribe(self, listener: EdgeListener) -> None:
        """Remove a previously registered listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, src: PeerId, dst: PeerId) -> None:
        for listener in self._listeners:
            listener(src, dst)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: PeerId) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
            self._version += 1

    def add_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Accumulate ``nbytes`` uploaded by ``src`` to ``dst``.

        Raises
        ------
        ValueError
            If ``nbytes`` is negative or NaN, or ``src == dst``
            (self-transfers carry no reputation information and are rejected).
        """
        if not nbytes >= 0:  # negative or NaN
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(f"self-transfer rejected for node {src!r}")
        if nbytes == 0:
            self.add_node(src)
            self.add_node(dst)
            return
        self.add_node(src)
        self.add_node(dst)
        self._out[src][dst] = self._out[src].get(dst, 0.0) + float(nbytes)
        self._in[dst][src] = self._in[dst].get(src, 0.0) + float(nbytes)
        self._version += 1
        self._notify(src, dst)

    def set_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Overwrite the aggregate for edge ``(src, dst)``.

        Used when a received BarterCast record supersedes an older record
        for the same ordered pair (records carry totals, not deltas).
        Writing the value already stored is a no-op: the version counter
        does not move and no listener fires.
        """
        if not nbytes >= 0:  # negative or NaN
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(f"self-transfer rejected for node {src!r}")
        # The ledger's hot write: endpoints are registered only when
        # missing (as ``add_node`` would) and listeners called inline.
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
            return
        if new > 0:
            row[dst] = new
            self._in[dst][src] = new
        else:
            del row[dst]
            del self._in[dst][src]
        self._version += 1
        for listener in self._listeners:
            listener(src, dst)

    def remove_node(self, node: PeerId) -> None:
        """Delete ``node`` and all incident edges (no-op if absent)."""
        if node not in self._out:
            return
        touched: List[Tuple[PeerId, PeerId]] = []
        for dst in self._out.pop(node):
            del self._in[dst][node]
            touched.append((node, dst))
        for src in self._in.pop(node):
            del self._out[src][node]
            touched.append((src, node))
        self._version += 1
        for src, dst in touched:
            self._notify(src, dst)

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

    @property
    def total_bytes(self) -> float:
        """Sum of all edge weights, correctly rounded (computed per read)."""
        return math.fsum(w for row in self._out.values() for w in row.values())

    @property
    def version(self) -> int:
        """Monotone counter bumped on every *effective* mutation.

        Writes that leave the stored state unchanged (e.g. ``set_transfer``
        to the current value) do not move it.  The node's dirty-set cache
        subscribes to edge events instead of polling this.
        """
        return self._version

    def in_degree(self, node: PeerId) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._in.get(node, {}))

    def out_degree(self, node: PeerId) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._out.get(node, {}))

    def net_flow(self, node: PeerId) -> float:
        """Total bytes uploaded minus total bytes downloaded by ``node``."""
        up = sum(self._out.get(node, {}).values())
        down = sum(self._in.get(node, {}).values())
        return up - down

    # ------------------------------------------------------------------
    # Interop / serialization
    # ------------------------------------------------------------------
    def copy(self) -> "TransferGraph":
        """A deep copy (fresh adjacency dicts)."""
        g = TransferGraph()
        for node in self._out:
            g.add_node(node)
        for src, dst, w in self.edges():
            g.add_transfer(src, dst, w)
        return g

    def to_dict(self) -> dict:
        """A JSON-serializable representation."""
        return {
            "nodes": list(self._out.keys()),
            "edges": [[src, dst, w] for src, dst, w in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TransferGraph":
        """Inverse of :meth:`to_dict`."""
        g = cls()
        for node in data.get("nodes", []):
            g.add_node(node)
        for src, dst, w in data.get("edges", []):
            g.add_transfer(src, dst, w)
        return g

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[PeerId, PeerId, float]]) -> "TransferGraph":
        """Build a graph from an iterable of ``(src, dst, bytes)``."""
        g = cls()
        for src, dst, w in edges:
            g.add_transfer(src, dst, w)
        return g

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` with ``capacity`` edge attributes.

        Used by the test suite to cross-validate the maxflow kernels.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._out.keys())
        g.add_weighted_edges_from(self.edges(), weight="capacity")
        return g

    def __contains__(self, node: PeerId) -> bool:
        return node in self._out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransferGraph nodes={self.num_nodes} edges={self.num_edges} "
            f"bytes={self.total_bytes:.0f}>"
        )
