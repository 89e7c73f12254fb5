"""The columnar transfer-graph backend: flat arrays instead of dict-of-dicts.

:class:`ColumnarTransferGraph` has the
:class:`~repro.graph.transfer_graph.TransferGraph` API (same write
semantics, same no-op discipline, same listener contract) but stores the
graph in a flat **append-only edge-slot log**:

* peers are interned to dense int indices (:class:`~repro.graph.interner
  .PeerInterner`; indices are never reused — see that module's contract);
* every first write to a directed pair appends one *slot* carrying
  ``(src_idx, dst_idx, value)``; later value changes update the slot in
  place; setting an edge to zero kills the slot (value ``0.0``, tombstone,
  pruned from both adjacency rows) and a later re-add appends a **new**
  slot at the end of the log;
* per-node adjacency rows are lists of live slot ids in append order;
* tombstones are dropped from the log by :meth:`~ColumnarTransferGraph
  .compact` once they outnumber the live slots.

:meth:`~ColumnarTransferGraph.build_csr` materializes the live slots into
CSR-style arrays (``indptr`` / ``indices`` / ``data``) in **both**
orientations; until the next effective write, :meth:`successors` /
:meth:`predecessors` read their rows from that snapshot.

Bit-identity with the dict backend
----------------------------------
The dict backend iterates adjacency rows in dict-insertion order, and
float addition is not associative, so reproducing its reputations *bit for
bit* requires reproducing its per-row iteration order exactly.  The slot
log does: a dict row's insertion order is the order in which its edges
were first stored (with delete + re-add moving an edge to the row end),
which is exactly ascending slot order — and the CSR build uses a *stable*
argsort by endpoint, which preserves ascending slot order within each row.
Ascending slot order is therefore the backend's **canonical summation
order**: deterministic across runs, rebuilds, compactions and ``--jobs``
counts, and equal to the dict oracle's order (DESIGN.md §13).

Snapshot views: :meth:`successors` / :meth:`predecessors` return fresh
dicts (in slot order) rather than live views.  The kernels only hold these
views across read-only sections, so they compute bit-identical flows on
either backend.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.graph.interner import PeerInterner

__all__ = ["ColumnarTransferGraph"]

PeerId = Hashable

EdgeListener = Callable[[PeerId, PeerId], None]

#: Compaction trigger: tombstoned slots are dropped from the log once they
#: outnumber live slots (and there are enough of them to matter).
_COMPACT_MIN_DEAD = 1024


class ColumnarTransferGraph:
    """A directed, weighted transfer graph over a columnar edge-slot log.

    Drop-in replacement for :class:`~repro.graph.transfer_graph
    .TransferGraph` (selected per node via ``BarterCastNode(
    graph_backend="columnar")``); the dict backend remains the oracle the
    property tests compare against.  Nodes are never removed: every
    interned peer is a node.

    Examples
    --------
    >>> g = ColumnarTransferGraph()
    >>> g.set_transfer("a", "b", 1000)
    >>> g.set_transfer("a", "b", 1500)
    >>> g.capacity("a", "b")
    1500.0
    >>> g.build_csr()  # row reads now come from the snapshot
    >>> g.successors("a")
    {'b': 1500.0}
    >>> g.set_transfer("a", "b", 0)  # a zero write deletes the edge
    >>> g.capacity("a", "b"), g.num_edges
    (0.0, 0)
    """

    def __init__(self) -> None:
        self._interner = PeerInterner()
        # Append-only slot log (python lists: O(1) append, cheap scalar
        # reads on the ingest hot path; numpy-ified at CSR build time).
        self._slot_src: List[int] = []
        self._slot_dst: List[int] = []
        self._slot_val: List[float] = []
        # Adjacency rows: per interned index, live slot ids in append order.
        self._out_rows: List[List[int]] = []
        self._in_rows: List[List[int]] = []
        # (src_peer, dst_peer) -> live slot id.  Keyed by peer ids, not
        # interned indices, so capacity() needs no interner lookups.
        self._edge_slot: Dict[Tuple[PeerId, PeerId], int] = {}
        self._dead_slots = 0
        self._listeners: List[EdgeListener] = []
        # The CSR snapshot, ``((out_indptr, out_dst, out_val), (in_indptr,
        # in_src, in_val))``; every effective write drops it.
        self._csr = None

    # ------------------------------------------------------------------
    # Change notification (same contract as the dict backend)
    # ------------------------------------------------------------------
    def subscribe(self, listener: EdgeListener) -> None:
        """Register ``listener(src, dst)`` to fire on every edge change."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Mutation (same semantics as the dict backend)
    # ------------------------------------------------------------------
    def add_node(self, node: PeerId) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        self._index(node)

    def _index(self, node: PeerId) -> int:
        """The interned index of ``node``, registering it if new."""
        idx = self._interner.lookup(node)
        if idx < 0:
            idx = self._interner.intern(node)
            self._out_rows.append([])
            self._in_rows.append([])
            self._csr = None
        return idx

    def set_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Overwrite the aggregate for edge ``(src, dst)``.

        Writing the stored value is a no-op (no listener fires), exactly
        like the dict backend.
        """
        if self.store(src, dst, nbytes):
            for listener in self._listeners:
                listener(src, dst)

    def store(self, src: PeerId, dst: PeerId, nbytes: float) -> bool:
        """:meth:`set_transfer` without the listeners; returns whether the
        stored weight changed (the dict backend's contract)."""
        if not nbytes >= 0:  # negative or NaN
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(f"self-transfer rejected for node {src!r}")
        key = (src, dst)
        slot = self._edge_slot.get(key)
        if slot is not None:
            # Live edge: both endpoints are necessarily known, and the
            # interned indices come from the slot itself (ingest fast
            # path — most claim updates re-write an existing edge).
            old = self._slot_val[slot]
            si = self._slot_src[slot]
            di = self._slot_dst[slot]
        else:
            si = self._index(src)
            di = self._index(dst)
            old = 0.0
        new = float(nbytes)
        if new == old:
            return False
        if slot is not None and new > 0:
            self._slot_val[slot] = new
        elif new > 0:
            slot = len(self._slot_val)
            self._slot_src.append(si)
            self._slot_dst.append(di)
            self._slot_val.append(new)
            self._out_rows[si].append(slot)
            self._in_rows[di].append(slot)
            self._edge_slot[key] = slot
        else:
            # Kill the slot: tombstone in the log, drop from the edge map
            # and both rows so a later re-add appends at the row end
            # (matching dict delete + re-insert order).
            self._slot_val[slot] = 0.0
            del self._edge_slot[key]
            self._out_rows[si].remove(slot)
            self._in_rows[di].remove(slot)
            self._dead_slots += 1
            if (
                self._dead_slots >= _COMPACT_MIN_DEAD
                and self._dead_slots * 2 > len(self._slot_val)
            ):
                self.compact()
        self._csr = None
        return True

    # ------------------------------------------------------------------
    # Log compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Drop tombstoned slots from the log; returns how many were removed.

        Slot ids are renumbered but their **relative order is preserved**,
        so row iteration order — and therefore every reputation — is
        unchanged.  The interner is untouched: interned indices survive
        compaction (pinned by ``tests/test_columnar.py``).
        """
        if self._dead_slots == 0:
            return 0
        old_vals = self._slot_val
        remap = [-1] * len(old_vals)
        new_src: List[int] = []
        new_dst: List[int] = []
        new_val: List[float] = []
        for slot, w in enumerate(old_vals):
            if w > 0.0:
                remap[slot] = len(new_val)
                new_src.append(self._slot_src[slot])
                new_dst.append(self._slot_dst[slot])
                new_val.append(w)
        removed = len(old_vals) - len(new_val)
        self._slot_src = new_src
        self._slot_dst = new_dst
        self._slot_val = new_val
        # Rows hold live slots only, so every id in them has a new one.
        self._out_rows = [[remap[s] for s in row] for row in self._out_rows]
        self._in_rows = [[remap[s] for s in row] for row in self._in_rows]
        peer = self._interner.peer
        self._edge_slot = {
            (peer(s), peer(d)): slot
            for slot, (s, d) in enumerate(zip(new_src, new_dst))
        }
        self._dead_slots = 0
        # Purely representational: no listener fires, and a CSR snapshot
        # holds slot-free copies, so it stays valid.
        return removed

    # ------------------------------------------------------------------
    # CSR materialization
    # ------------------------------------------------------------------
    def build_csr(self) -> None:
        """Materialize the CSR snapshot now (idempotent).

        Nothing builds it implicitly: a caller that knows a burst of
        queries is coming on a graph that will not change in between pays
        the O(E) sort once here, and the row reads take the snapshot until
        the next effective write.
        """
        if self._csr is not None:
            return
        n = len(self._interner)
        src = np.asarray(self._slot_src, dtype=np.int64)
        dst = np.asarray(self._slot_dst, dtype=np.int64)
        val = np.asarray(self._slot_val, dtype=np.float64)
        if self._dead_slots:
            live = val > 0.0
            src, dst, val = src[live], dst[live], val[live]
        # Stable sorts preserve ascending slot order within each row: the
        # canonical summation order (module docstring).
        order_out = np.argsort(src, kind="stable")
        order_in = np.argsort(dst, kind="stable")
        out_indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        in_indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
        self._csr = (
            (out_indptr, dst[order_out], val[order_out]),
            (in_indptr, src[order_in], val[order_in]),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def capacity(self, src: PeerId, dst: PeerId) -> float:
        """Bytes uploaded by ``src`` to ``dst`` (0.0 if no edge)."""
        slot = self._edge_slot.get((src, dst))
        return self._slot_val[slot] if slot is not None else 0.0

    def successors(self, node: PeerId) -> Mapping[PeerId, float]:
        """``{dst: bytes}`` for edges out of ``node``, in slot order.

        Unlike the dict backend this is a snapshot, not a live view; the
        kernels only hold it across read-only sections.
        """
        return self._row(node, 0, self._out_rows, self._slot_dst)

    def predecessors(self, node: PeerId) -> Mapping[PeerId, float]:
        """``{src: bytes}`` for edges into ``node``, in slot order."""
        return self._row(node, 1, self._in_rows, self._slot_src)

    def _row(
        self, node: PeerId, side: int, rows: List[List[int]], ends: List[int]
    ) -> Dict[PeerId, float]:
        idx = self._interner.lookup(node)
        if idx < 0:
            return {}
        peer = self._interner.peer
        if self._csr is not None:
            indptr, other, val = self._csr[side]
            s, e = indptr[idx], indptr[idx + 1]
            return dict(zip(map(peer, other[s:e].tolist()), val[s:e].tolist()))
        vals = self._slot_val
        return {peer(ends[slot]): vals[slot] for slot in rows[idx]}

    def has_node(self, node: PeerId) -> bool:
        """Whether ``node`` is present."""
        return self._interner.lookup(node) >= 0

    def nodes(self) -> Iterator[PeerId]:
        """Iterate over all nodes (insertion order, like the dict backend)."""
        return map(self._interner.peer, range(len(self._interner)))

    def edges(self) -> Iterator[Tuple[PeerId, PeerId, float]]:
        """Iterate over ``(src, dst, bytes)`` triples in node/slot order."""
        vals = self._slot_val
        dsts = self._slot_dst
        peer = self._interner.peer
        for idx, row in enumerate(self._out_rows):
            src = peer(idx)
            for slot in row:
                yield src, peer(dsts[slot]), vals[slot]

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._interner)

    @property
    def num_edges(self) -> int:
        """Number of positive-weight directed edges."""
        return len(self._edge_slot)

    def in_degree(self, node: PeerId) -> int:
        """Number of incoming edges of ``node``."""
        idx = self._interner.lookup(node)
        return len(self._in_rows[idx]) if idx >= 0 else 0

    def out_degree(self, node: PeerId) -> int:
        """Number of outgoing edges of ``node``."""
        idx = self._interner.lookup(node)
        return len(self._out_rows[idx]) if idx >= 0 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTransferGraph nodes={self.num_nodes} edges={self.num_edges}>"
