"""The columnar transfer-graph backend: flat arrays instead of dict-of-dicts.

:class:`ColumnarTransferGraph` duck-types the full
:class:`~repro.graph.transfer_graph.TransferGraph` API (same mutation
semantics, same version/no-op discipline, same listener contract) but
stores the graph in a flat **append-only edge-slot log**:

* peers are interned to dense int indices (:class:`~repro.graph.interner
  .PeerInterner`; indices are never reused — see that module's contract);
* every first write to a directed pair appends one *slot* carrying
  ``(src_idx, dst_idx, value)``; later value changes update the slot in
  place; setting an edge to zero kills the slot (value ``0.0``, tombstone)
  and a later re-add appends a **new** slot at the end of the log;
* per-node adjacency rows are lists of slot ids in append order.

On demand the log is materialized into CSR-style arrays
(``indptr`` / ``indices`` / ``data``) in **both** orientations, which is
what the vectorized 2-hop kernel (:func:`two_hop_batch_arrays`) consumes.

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
counts, and equal to the dict oracle's order.  (Summing in ascending
*interned-index* order instead would be deterministic too, but would break
bit-identity with the dict oracle; see DESIGN.md §13.)

Snapshot views: :meth:`successors` / :meth:`predecessors` return fresh
dicts (in slot order) rather than live views.  The scalar kernels and the
dict-path batch kernel only hold these views across read-only sections, so
they compute bit-identical flows on either backend.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.graph.interner import PeerInterner

__all__ = ["ColumnarTransferGraph", "two_hop_batch_arrays"]

PeerId = Hashable

EdgeListener = Callable[[PeerId, PeerId], None]

#: Compaction trigger: tombstoned slots are dropped from the log once they
#: outnumber live slots (and there are enough of them to matter).
_COMPACT_MIN_DEAD = 1024


class _CSR:
    """One materialized dual-orientation CSR snapshot of the slot log."""

    __slots__ = (
        "n",
        "out_indptr",
        "out_dst",
        "out_val",
        "in_indptr",
        "in_src",
        "in_val",
    )

    def __init__(self, n, out_indptr, out_dst, out_val, in_indptr, in_src, in_val):
        self.n = n
        self.out_indptr = out_indptr
        self.out_dst = out_dst
        self.out_val = out_val
        self.in_indptr = in_indptr
        self.in_src = in_src
        self.in_val = in_val


class ColumnarTransferGraph:
    """A directed, weighted transfer graph over a columnar edge-slot log.

    Drop-in replacement for :class:`~repro.graph.transfer_graph
    .TransferGraph` (selected per node via ``BarterCastNode(
    graph_backend="columnar")``); the dict backend remains the oracle the
    property tests compare against.

    Examples
    --------
    >>> g = ColumnarTransferGraph()
    >>> g.add_transfer("a", "b", 1000)
    >>> g.add_transfer("a", "b", 500)
    >>> g.capacity("a", "b")
    1500.0
    >>> g.capacity("b", "a")
    0.0
    """

    def __init__(self) -> None:
        self._interner = PeerInterner()
        self._live: Dict[PeerId, None] = {}
        # Append-only slot log (python lists: O(1) append, cheap scalar
        # reads on the ingest hot path; numpy-ified at CSR build time).
        self._slot_src: List[int] = []
        self._slot_dst: List[int] = []
        self._slot_val: List[float] = []
        # Adjacency rows: per interned index, slot ids in append order
        # (may contain tombstones; readers filter value > 0).
        self._out_rows: List[List[int]] = []
        self._in_rows: List[List[int]] = []
        # (src_peer, dst_peer) -> live slot id.  Keyed by peer ids, not
        # interned indices, so capacity() needs no interner lookups.
        self._edge_slot: Dict[Tuple[PeerId, PeerId], int] = {}
        self._dead_slots = 0
        self._version = 0
        self._listeners: List[EdgeListener] = []
        # Lazily materialized CSR snapshot, keyed by version.
        self._csr: _CSR = None
        self._csr_version = -1
        # Bulk loads (from_edge_arrays) defer the python-side structures
        # until a mutation or row-path read needs them.
        self._rows_ready = True
        self._lazy: Tuple[np.ndarray, np.ndarray, np.ndarray] = None

    # ------------------------------------------------------------------
    # Change notification (same contract as the dict backend)
    # ------------------------------------------------------------------
    def subscribe(self, listener: EdgeListener) -> None:
        """Register ``listener(src, dst)`` to fire on every edge change."""
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
    # Interning
    # ------------------------------------------------------------------
    @property
    def interner(self) -> PeerInterner:
        """The peer-id interner (indices are stable across churn)."""
        return self._interner

    def peer_index(self, peer: PeerId) -> int:
        """Interned index of ``peer`` (-1 if never seen)."""
        return self._interner.lookup(peer)

    def _intern_node(self, peer: PeerId) -> int:
        idx = self._interner.intern(peer)
        if self._rows_ready:
            while len(self._out_rows) <= idx:
                self._out_rows.append([])
                self._in_rows.append([])
        return idx

    def _ensure_rows(self) -> None:
        """Materialize the python-side structures after a bulk load."""
        if self._rows_ready:
            return
        src_np, dst_np, val_np = self._lazy
        src_l = src_np.tolist()
        dst_l = dst_np.tolist()
        self._slot_src = src_l
        self._slot_dst = dst_l
        self._slot_val = val_np.tolist()
        n = len(self._interner)
        out_rows: List[List[int]] = [[] for _ in range(n)]
        in_rows: List[List[int]] = [[] for _ in range(n)]
        peer = self._interner.peer
        edge_slot: Dict[Tuple[PeerId, PeerId], int] = {}
        for slot, (s, d) in enumerate(zip(src_l, dst_l)):
            out_rows[s].append(slot)
            in_rows[d].append(slot)
            edge_slot[(peer(s), peer(d))] = slot
        self._out_rows = out_rows
        self._in_rows = in_rows
        self._edge_slot = edge_slot
        self._rows_ready = True
        self._lazy = None

    # ------------------------------------------------------------------
    # Mutation (same semantics and version discipline as the dict backend)
    # ------------------------------------------------------------------
    def add_node(self, node: PeerId) -> None:
        """Ensure ``node`` exists (possibly with no edges)."""
        if node in self._live:
            return
        self._ensure_rows()
        self._intern_node(node)
        self._live[node] = None
        self._version += 1

    def _ensure_live(self, node: PeerId) -> int:
        """:meth:`add_node` fused with the interned-index lookup (write
        hot path: one dict probe for the already-known common case)."""
        if not self._rows_ready:
            self._ensure_rows()
        idx = self._interner.lookup(node)
        if idx < 0:
            idx = self._intern_node(node)
            self._live[node] = None
            self._version += 1
        elif node not in self._live:
            self._live[node] = None
            self._version += 1
        return idx

    def add_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Accumulate ``nbytes`` uploaded by ``src`` to ``dst``.

        Raises
        ------
        ValueError
            If ``nbytes`` is negative or NaN, or ``src == dst``.
        """
        if not nbytes >= 0:  # negative or NaN
            raise ValueError(f"transfer size must be non-negative, got {nbytes}")
        if src == dst:
            raise ValueError(f"self-transfer rejected for node {src!r}")
        si = self._ensure_live(src)
        di = self._ensure_live(dst)
        if nbytes == 0:
            return
        # Same arithmetic as the dict backend: old + float(nbytes), with
        # old = 0.0 for a fresh edge.
        amount = float(nbytes)
        key = (src, dst)
        slot = self._edge_slot.get(key)
        if slot is None:
            self._append_slot(si, di, 0.0 + amount, key)
        else:
            self._slot_val[slot] = self._slot_val[slot] + amount
        self._version += 1
        if self._listeners:
            self._notify(src, dst)

    def set_transfer(self, src: PeerId, dst: PeerId, nbytes: float) -> None:
        """Overwrite the aggregate for edge ``(src, dst)``.

        Writing the stored value is a no-op (no version bump, no listener),
        exactly like the dict backend.
        """
        if self.store(src, dst, nbytes) and self._listeners:
            self._notify(src, dst)

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
            # Live edge: both endpoints are necessarily known and live, so
            # the node bookkeeping is skipped and the interned indices come
            # from the slot itself (ingest fast path — most claim updates
            # re-write an existing edge).
            old = self._slot_val[slot]
            si = self._slot_src[slot]
            di = self._slot_dst[slot]
        else:
            si = self._ensure_live(src)
            di = self._ensure_live(dst)
            old = 0.0
        new = float(nbytes)
        if new == old:
            return False
        if new > 0:
            if slot is None:
                self._append_slot(si, di, new, key)
            else:
                self._slot_val[slot] = new
        else:
            # Kill the slot: tombstone in the log, drop from the edge map
            # and both rows so a later re-add appends at the row end
            # (matching dict delete + re-insert order).
            self._slot_val[slot] = 0.0
            del self._edge_slot[key]
            self._out_rows[si].remove(slot)
            self._in_rows[di].remove(slot)
            self._dead_slots += 1
            self._maybe_compact()
        self._version += 1
        return True

    def _append_slot(
        self, si: int, di: int, value: float, key: Tuple[PeerId, PeerId]
    ) -> None:
        slot = len(self._slot_val)
        self._slot_src.append(si)
        self._slot_dst.append(di)
        self._slot_val.append(value)
        self._out_rows[si].append(slot)
        self._in_rows[di].append(slot)
        self._edge_slot[key] = slot

    def remove_node(self, node: PeerId) -> None:
        """Delete ``node`` and all incident edges (no-op if absent)."""
        if node not in self._live:
            return
        self._ensure_rows()
        idx = self._interner.lookup(node)
        vals = self._slot_val
        peer = self._interner.peer
        touched: List[Tuple[PeerId, PeerId]] = []
        # Out-edges first, then in-edges, each in row (slot) order — the
        # same notification order as the dict backend's pop loops.
        for slot in self._out_rows[idx]:
            w = vals[slot]
            if w <= 0.0:
                continue
            di = self._slot_dst[slot]
            other = peer(di)
            vals[slot] = 0.0
            del self._edge_slot[(node, other)]
            self._in_rows[di].remove(slot)
            self._dead_slots += 1
            touched.append((node, other))
        self._out_rows[idx] = []
        for slot in self._in_rows[idx]:
            w = vals[slot]
            if w <= 0.0:
                continue
            si = self._slot_src[slot]
            other = peer(si)
            vals[slot] = 0.0
            del self._edge_slot[(other, node)]
            self._out_rows[si].remove(slot)
            self._dead_slots += 1
            touched.append((other, node))
        self._in_rows[idx] = []
        del self._live[node]
        self._version += 1
        self._maybe_compact()
        for a, b in touched:
            self._notify(a, b)

    # ------------------------------------------------------------------
    # Log compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if (
            self._dead_slots >= _COMPACT_MIN_DEAD
            and self._dead_slots * 2 > len(self._slot_val)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop tombstoned slots from the log; returns how many were removed.

        Slot ids are renumbered but their **relative order is preserved**,
        so row iteration order — and therefore every reputation — is
        unchanged.  The interner is untouched: interned indices survive
        compaction (pinned by ``tests/test_columnar.py``).
        """
        self._ensure_rows()
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
        self._out_rows = [
            [remap[s] for s in row if remap[s] >= 0] for row in self._out_rows
        ]
        self._in_rows = [
            [remap[s] for s in row if remap[s] >= 0] for row in self._in_rows
        ]
        peer = self._interner.peer
        self._edge_slot = {
            (peer(s), peer(d)): slot
            for slot, (s, d) in enumerate(zip(new_src, new_dst))
        }
        self._dead_slots = 0
        # Purely representational: no version bump (no listener fires, no
        # cache invalidates), but any CSR snapshot holds stale slot-free
        # copies anyway, so it stays valid.
        return removed

    # ------------------------------------------------------------------
    # CSR materialization
    # ------------------------------------------------------------------
    @property
    def csr_fresh(self) -> bool:
        """Whether the materialized CSR snapshot matches the current state."""
        return self._csr_version == self._version

    def build_csr(self) -> None:
        """Materialize the CSR snapshot now (idempotent).

        :func:`repro.graph.batch.maxflow_two_hop_batch` never rebuilds a
        stale snapshot; callers that know a burst of queries is coming on a
        graph that will not change in between — a cold sweep after a bulk
        load — pay the O(E) sort once here and every following batch takes
        the array-kernel path until the next write.
        """
        self._ensure_csr()

    def _ensure_csr(self) -> _CSR:
        if self._csr_version == self._version:
            return self._csr
        n = len(self._interner)
        if self._rows_ready:
            src = np.asarray(self._slot_src, dtype=np.int64)
            dst = np.asarray(self._slot_dst, dtype=np.int64)
            val = np.asarray(self._slot_val, dtype=np.float64)
            if self._dead_slots:
                live = val > 0.0
                src = src[live]
                dst = dst[live]
                val = val[live]
        else:
            src, dst, val = self._lazy
        # Stable sorts preserve ascending slot order within each row: the
        # canonical summation order (module docstring).
        order_out = np.argsort(src, kind="stable")
        order_in = np.argsort(dst, kind="stable")
        out_counts = np.bincount(src, minlength=n)
        in_counts = np.bincount(dst, minlength=n)
        csr = _CSR(
            n=n,
            out_indptr=np.concatenate(([0], np.cumsum(out_counts))),
            out_dst=dst[order_out],
            out_val=val[order_out],
            in_indptr=np.concatenate(([0], np.cumsum(in_counts))),
            in_src=src[order_in],
            in_val=val[order_in],
        )
        self._csr = csr
        self._csr_version = self._version
        return csr

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def capacity(self, src: PeerId, dst: PeerId) -> float:
        """Bytes uploaded by ``src`` to ``dst`` (0.0 if no edge)."""
        if not self._rows_ready:
            self._ensure_rows()
        slot = self._edge_slot.get((src, dst))
        return self._slot_val[slot] if slot is not None else 0.0

    def successors(self, node: PeerId) -> Mapping[PeerId, float]:
        """``{dst: bytes}`` for edges out of ``node``, in slot order.

        Unlike the dict backend this is a snapshot, not a live view; the
        kernels only hold it across read-only sections.
        """
        idx = self._interner.lookup(node)
        if idx < 0 or node not in self._live:
            return {}
        if self._csr_version == self._version:
            c = self._csr
            s, e = c.out_indptr[idx], c.out_indptr[idx + 1]
            if s == e:
                return {}
            peer = self._interner.peer
            return {
                peer(d): w
                for d, w in zip(c.out_dst[s:e].tolist(), c.out_val[s:e].tolist())
            }
        self._ensure_rows()
        vals = self._slot_val
        dsts = self._slot_dst
        peer = self._interner.peer
        out: Dict[PeerId, float] = {}
        for slot in self._out_rows[idx]:
            w = vals[slot]
            if w > 0.0:
                out[peer(dsts[slot])] = w
        return out

    def predecessors(self, node: PeerId) -> Mapping[PeerId, float]:
        """``{src: bytes}`` for edges into ``node``, in slot order."""
        idx = self._interner.lookup(node)
        if idx < 0 or node not in self._live:
            return {}
        if self._csr_version == self._version:
            c = self._csr
            s, e = c.in_indptr[idx], c.in_indptr[idx + 1]
            if s == e:
                return {}
            peer = self._interner.peer
            return {
                peer(d): w
                for d, w in zip(c.in_src[s:e].tolist(), c.in_val[s:e].tolist())
            }
        self._ensure_rows()
        vals = self._slot_val
        srcs = self._slot_src
        peer = self._interner.peer
        out: Dict[PeerId, float] = {}
        for slot in self._in_rows[idx]:
            w = vals[slot]
            if w > 0.0:
                out[peer(srcs[slot])] = w
        return out

    def has_node(self, node: PeerId) -> bool:
        """Whether ``node`` is present."""
        return node in self._live

    def nodes(self) -> Iterator[PeerId]:
        """Iterate over all nodes (insertion order, like the dict backend)."""
        return iter(self._live)

    def edges(self) -> Iterator[Tuple[PeerId, PeerId, float]]:
        """Iterate over ``(src, dst, bytes)`` triples in node/slot order."""
        self._ensure_rows()
        vals = self._slot_val
        dsts = self._slot_dst
        lookup = self._interner.lookup
        peer = self._interner.peer
        for node in self._live:
            for slot in self._out_rows[lookup(node)]:
                w = vals[slot]
                if w > 0.0:
                    yield node, peer(dsts[slot]), w

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._live)

    @property
    def num_edges(self) -> int:
        """Number of positive-weight directed edges."""
        if not self._rows_ready:
            return int(self._lazy[2].shape[0])
        return len(self._edge_slot)

    @property
    def total_bytes(self) -> float:
        """Sum of all edge weights, correctly rounded (computed per read;
        tombstoned slots hold 0.0)."""
        return math.fsum(self._slot_val if self._rows_ready else self._lazy[2])

    @property
    def version(self) -> int:
        """Monotone counter bumped on every *effective* mutation."""
        return self._version

    def in_degree(self, node: PeerId) -> int:
        """Number of incoming edges of ``node``."""
        return len(self.predecessors(node))

    def out_degree(self, node: PeerId) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self.successors(node))

    def net_flow(self, node: PeerId) -> float:
        """Total bytes uploaded minus total bytes downloaded by ``node``.

        Sequential python summation in row order — the same accumulation
        order as the dict backend.
        """
        up = sum(self.successors(node).values())
        down = sum(self.predecessors(node).values())
        return up - down

    # ------------------------------------------------------------------
    # Interop / serialization
    # ------------------------------------------------------------------
    def copy(self) -> "ColumnarTransferGraph":
        """A deep copy (fresh, compact slot log)."""
        g = ColumnarTransferGraph()
        for node in self._live:
            g.add_node(node)
        for src, dst, w in self.edges():
            g.add_transfer(src, dst, w)
        return g

    def to_dict(self) -> dict:
        """A JSON-serializable representation."""
        return {
            "nodes": list(self._live),
            "edges": [[src, dst, w] for src, dst, w in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ColumnarTransferGraph":
        """Inverse of :meth:`to_dict`."""
        g = cls()
        for node in data.get("nodes", []):
            g.add_node(node)
        for src, dst, w in data.get("edges", []):
            g.add_transfer(src, dst, w)
        return g

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[PeerId, PeerId, float]]
    ) -> "ColumnarTransferGraph":
        """Build a graph from an iterable of ``(src, dst, bytes)``."""
        g = cls()
        for src, dst, w in edges:
            g.add_transfer(src, dst, w)
        return g

    @classmethod
    def from_edge_arrays(
        cls,
        num_peers: int,
        src: np.ndarray,
        dst: np.ndarray,
        val: np.ndarray,
    ) -> "ColumnarTransferGraph":
        """Bulk-load a graph over int peers ``0..num_peers-1`` from arrays.

        Skips per-edge python overhead entirely: the arrays become the slot
        log directly (array order = slot order = summation order), and the
        python-side row/slot-map structures are materialized lazily, only
        if the graph is later mutated or read row by row.

        ``(src, dst)`` pairs must be unique, self-loop free, with strictly
        positive weights — the caller's synthetic generator guarantees it
        and a cheap vectorized check enforces it.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        val = np.ascontiguousarray(val, dtype=np.float64)
        if not (src.shape == dst.shape == val.shape):
            raise ValueError("src/dst/val arrays must have identical shapes")
        if src.size:
            if int(src.min()) < 0 or int(max(src.max(), dst.max())) >= num_peers:
                raise ValueError("peer indices out of range")
            if bool((src == dst).any()):
                raise ValueError("self-transfers rejected")
            if not bool((val > 0).all()):
                raise ValueError("edge weights must be positive")
        g = cls()
        g._interner.extend(range(num_peers))
        g._live = dict.fromkeys(range(num_peers))
        g._rows_ready = False
        g._lazy = (src, dst, val)
        g._version = 1
        return g

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` with ``capacity`` attributes."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._live)
        g.add_weighted_edges_from(self.edges(), weight="capacity")
        return g

    def __contains__(self, node: PeerId) -> bool:
        return node in self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnarTransferGraph nodes={self.num_nodes} "
            f"edges={self.num_edges} bytes={self.total_bytes:.0f}>"
        )


# ----------------------------------------------------------------------
# The vectorized 2-hop batch kernel
# ----------------------------------------------------------------------
def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions of the concatenation of ``[starts[i], starts[i]+lens[i])``."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.concatenate(([0], np.cumsum(lens[:-1])))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - shift, lens)


def two_hop_batch_arrays(
    graph: ColumnarTransferGraph, owner: PeerId, targets: List[PeerId]
) -> Dict[PeerId, Tuple[float, float]]:
    """Array-kernel twin of :func:`repro.graph.batch.maxflow_two_hop_batch`.

    ``targets`` must already be deduplicated and owner-free, and ``owner``
    must be present in the graph (the dispatcher guarantees both).
    Returns ``{j: (inflow, outflow)}`` with every float **bit-identical**
    to the dict-backend scalar kernel.

    How bit-identity is kept (the derivation is in DESIGN.md §13): the
    closed form ``maxflow2(s, t) = c(s, t) + Σ_v min(c(s, v), c(v, t))``
    is evaluated per target by replicating the scalar kernel's
    scan-the-smaller-side branch choice, emitting the min-terms of each
    target in exactly the scalar scan order, and accumulating them with
    ``np.bincount`` — which adds weights sequentially in entry order
    (pairwise ``np.sum`` would not reproduce the scalar fold).  Terms the
    scalar kernel skips (``v == owner``, missing lookup edges) evaluate to
    ``min(·, 0.0) = 0.0`` here, and adding ``0.0`` to a non-negative
    partial sum is bitwise-neutral, so no masking of those terms is
    needed; only target-membership masks are applied.
    """
    csr = graph._ensure_csr()
    n = csr.n
    inter = graph._interner
    oi = inter.lookup(owner)
    m0 = len(targets)
    if m0 == 0:
        return {}
    t_idx = np.fromiter((inter.lookup(j) for j in targets), dtype=np.int64, count=m0)
    known = t_idx >= 0
    T = t_idx[known]
    m = int(T.shape[0])
    if m == 0:
        return {j: (0.0, 0.0) for j in targets}

    out_indptr = csr.out_indptr
    in_indptr = csr.in_indptr

    # Owner rows, densified: dense_in[v] = c(v, owner), dense_out[v] = c(owner, v).
    s_in, e_in = int(in_indptr[oi]), int(in_indptr[oi + 1])
    in_o_src = csr.in_src[s_in:e_in]
    in_o_val = csr.in_val[s_in:e_in]
    s_out, e_out = int(out_indptr[oi]), int(out_indptr[oi + 1])
    out_o_dst = csr.out_dst[s_out:e_out]
    out_o_val = csr.out_val[s_out:e_out]
    dense_in = np.zeros(n)
    dense_in[in_o_src] = in_o_val
    dense_out = np.zeros(n)
    dense_out[out_o_dst] = out_o_val
    len_in_o = e_in - s_in
    len_out_o = e_out - s_out

    deg_out_t = out_indptr[T + 1] - out_indptr[T]
    deg_in_t = in_indptr[T + 1] - in_indptr[T]
    # Branch choice, exactly as the scalar kernel:
    #   inflow:  scan out_j if len(out_j) <= len(in_o)  (A) else scan in_o (B)
    #   outflow: scan out_o if len(out_o) <= len(in_j)  (C) else scan in_j (D)
    isA = deg_out_t <= len_in_o
    isC = len_out_o <= deg_in_t
    seg_all = np.arange(m, dtype=np.int64)
    seeds_in = dense_in[T]  # c(j, owner): the direct-edge seed, summed first
    seeds_out = dense_out[T]  # c(owner, j)

    # Target-position scatter for the owner-row-scan branches.
    pos = np.full(n, -1, dtype=np.int64)
    pos[T] = seg_all

    # Branch A: per-target scan of out_j rows (row order).
    a_starts = out_indptr[T[isA]]
    a_lens = deg_out_t[isA]
    idxA = _concat_ranges(a_starts, a_lens)
    segA = np.repeat(seg_all[isA], a_lens)
    termsA = np.minimum(csr.out_val[idxA], dense_in[csr.out_dst[idxA]])

    # Branch B: per-target scan of the owner's in-row.  Emitted v-major
    # (l over the owner row), which is ascending-l per target — the scalar
    # scan order.  Entries come from the in-rows of each v (they hold the
    # needed c(j, v) capacities); membership masks keep only branch-B
    # targets.
    isB = ~isA
    b_starts = in_indptr[in_o_src]
    b_lens = in_indptr[in_o_src + 1] - b_starts
    idxB = _concat_ranges(b_starts, b_lens)
    srcB = csr.in_src[idxB]
    posB = pos[srcB]
    maskB = posB >= 0
    if maskB.any():
        maskB &= isB[np.where(maskB, posB, 0)]
    termsB = np.minimum(csr.in_val[idxB], np.repeat(in_o_val, b_lens))[maskB]
    segB = posB[maskB]

    inflow = np.bincount(
        np.concatenate((seg_all, segA, segB)),
        weights=np.concatenate((seeds_in, termsA, termsB)),
        minlength=m,
    )

    # Branch C: per-target scan of the owner's out-row (mirror of B).
    c_starts = out_indptr[out_o_dst]
    c_lens = out_indptr[out_o_dst + 1] - c_starts
    idxC = _concat_ranges(c_starts, c_lens)
    dstC = csr.out_dst[idxC]
    posC = pos[dstC]
    maskC = posC >= 0
    if maskC.any():
        maskC &= isC[np.where(maskC, posC, 0)]
    termsC = np.minimum(np.repeat(out_o_val, c_lens), csr.out_val[idxC])[maskC]
    segC = posC[maskC]

    # Branch D: per-target scan of in_j rows (mirror of A).
    isD = ~isC
    d_starts = in_indptr[T[isD]]
    d_lens = deg_in_t[isD]
    idxD = _concat_ranges(d_starts, d_lens)
    segD = np.repeat(seg_all[isD], d_lens)
    termsD = np.minimum(dense_out[csr.in_src[idxD]], csr.in_val[idxD])

    outflow = np.bincount(
        np.concatenate((seg_all, segC, segD)),
        weights=np.concatenate((seeds_out, termsC, termsD)),
        minlength=m,
    )

    infl = inflow.tolist()
    outfl = outflow.tolist()
    results: Dict[PeerId, Tuple[float, float]] = {}
    k = 0
    for j, good in zip(targets, known.tolist()):
        if good:
            results[j] = (infl[k], outfl[k])
            k += 1
        else:
            results[j] = (0.0, 0.0)
    return results
