"""Columnar backend: interner stability, dict-oracle equivalence, node level.

The dict-backed :class:`~repro.graph.transfer_graph.TransferGraph` is the
semantic oracle; every test here pins the columnar backend — storage,
events, both row-read paths (the slot rows and the CSR snapshot), and
node-level behaviour — to it bit-for-bit.  The interner contract (indices
never reused, never remapped, surviving churn wipes and log compaction)
is what the CSR snapshots rely on, so it gets its own section.
"""

import random

import numpy as np
import pytest

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.reputation import MB
from repro.graph.columnar import ColumnarTransferGraph
from repro.graph.interner import PeerInterner
from repro.graph.maxflow import maxflow_two_hop, maxflow_two_hop_batch, two_hop_paths
from repro.graph.transfer_graph import TransferGraph


# ---------------------------------------------------------------------------
# Interner contract
# ---------------------------------------------------------------------------


class TestPeerInterner:
    def test_round_trip_and_stability(self):
        interner = PeerInterner()
        ids = ["alice", 42, ("swarm", 7), "bob"]
        indices = [interner.intern(p) for p in ids]
        assert indices == [0, 1, 2, 3]
        # Re-interning returns the same index; lookup/peer round-trip.
        assert [interner.intern(p) for p in ids] == indices
        for p, i in zip(ids, indices):
            assert interner.lookup(p) == i
            assert interner.peer(i) == p
        assert interner.lookup("stranger") == -1
        assert len(interner) == 4

    def test_string_and_int_ids_do_not_collide(self):
        interner = PeerInterner()
        a = interner.intern(1)
        b = interner.intern("1")
        assert a != b
        assert interner.peer(a) == 1
        assert interner.peer(b) == "1"

    def test_indices_survive_churn_wipe(self):
        """A hard-restart wipe (forget every reporter: zero writes) empties
        the graph's gossip edges but must not move any interned index."""
        node = BarterCastNode("me", graph_backend="columnar")
        msg = BarterCastMessage(
            "r1",
            1.0,
            records=(
                HistoryRecord("a", 100 * MB, 50 * MB),
                HistoryRecord("b", 10 * MB, 0.0),
            ),
        )
        node.receive_message(msg)
        lookup = node.graph._interner.lookup
        before = {p: lookup(p) for p in ("r1", "a", "b")}
        assert all(i >= 0 for i in before.values())
        node.wipe_shared_history()
        assert node.graph.num_edges == 0
        assert {p: lookup(p) for p in ("r1", "a", "b")} == before
        # Re-learning the same peers reuses the same indices.
        node.receive_message(
            BarterCastMessage("r1", 2.0, records=(HistoryRecord("a", 1 * MB, 0.0),))
        )
        assert {p: lookup(p) for p in ("r1", "a", "b")} == before

    def test_indices_survive_log_compaction(self):
        g = ColumnarTransferGraph()
        for i in range(20):
            g.set_transfer(f"p{i}", f"p{(i + 1) % 20}", 10.0 + i)
        lookup = g._interner.lookup
        before = {f"p{i}": lookup(f"p{i}") for i in range(20)}
        for i in range(0, 20, 2):
            g.set_transfer(f"p{i}", f"p{(i + 1) % 20}", 0.0)
        edges = list(g.edges())
        assert g.compact() == 10
        assert g.compact() == 0
        assert {f"p{i}": lookup(f"p{i}") for i in range(20)} == before
        assert list(g.edges()) == edges


# ---------------------------------------------------------------------------
# Graph-level dict-oracle equivalence
# ---------------------------------------------------------------------------


def _random_op_stream(seed: int, n_peers: int = 8, n_ops: int = 60):
    """Overwrites, zero writes, a node's every edge zeroed (a wipe), and
    ``csr`` (the columnar graph builds its snapshot; a no-op on the dict
    graph)."""
    rng = random.Random(seed)
    peers = [f"p{i}" for i in range(n_peers)]
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        a, b = rng.sample(peers, 2)
        if roll < 0.6:
            ops.append(("set", a, b, round(rng.uniform(0.1, 9.9), 3)))
        elif roll < 0.8:
            ops.append(("set", a, b, 0.0))
        elif roll < 0.9:
            ops.append(("wipe", a, None, None))
        else:
            ops.append(("csr", None, None, None))
    return ops


def _apply(graph, ops, events):
    """Apply ``ops`` through the one write both classes share; a wipe
    zeroes out-edges then in-edges, read from the graph itself (from the
    snapshot, when one is fresh)."""
    graph.subscribe(lambda s, d: events.append((s, d)))
    for op, a, b, v in ops:
        if op == "set":
            graph.set_transfer(a, b, v)
        elif op == "wipe":
            for dst in list(graph.successors(a)):
                graph.set_transfer(a, dst, 0.0)
            for src in list(graph.predecessors(a)):
                graph.set_transfer(src, a, 0.0)
        elif isinstance(graph, ColumnarTransferGraph):
            graph.build_csr()


def _same_graph(g1, g2):
    assert list(g1.nodes()) == list(g2.nodes())
    assert list(g1.edges()) == list(g2.edges())
    assert (g1.num_nodes, g1.num_edges) == (g2.num_nodes, g2.num_edges)
    for p in [*g1.nodes(), "ghost"]:
        # Order matters: row iteration order is the summation order.
        assert list(g1.successors(p).items()) == list(g2.successors(p).items())
        assert list(g1.predecessors(p).items()) == list(g2.predecessors(p).items())
        assert (g1.in_degree(p), g1.out_degree(p)) == (g2.in_degree(p), g2.out_degree(p))
        assert g1.has_node(p) == g2.has_node(p)
        for q in g1.nodes():
            if q != p:
                assert g1.capacity(p, q) == g2.capacity(p, q)


@pytest.mark.parametrize("seed", range(8))
def test_op_stream_equivalence_with_dict_oracle(seed):
    ops = _random_op_stream(seed)
    g1, g2 = TransferGraph(), ColumnarTransferGraph()
    ev1, ev2 = [], []
    _apply(g1, ops, ev1)
    _apply(g2, ops, ev2)
    assert ev1 == ev2  # listener event order is part of the contract
    _same_graph(g1, g2)  # slot rows, or the snapshot if the last op built it
    g2.build_csr()
    _same_graph(g1, g2)  # the snapshot


def test_long_op_stream_compacts_and_stays_equal():
    """Enough zero writes to cross the compaction trigger several times:
    compaction renumbers slots and keeps every row's order."""
    ops = _random_op_stream(99, n_peers=5, n_ops=12_000)
    g1, g2 = TransferGraph(), ColumnarTransferGraph()
    kills = []
    g2.subscribe(lambda s, d: kills.append(g2.capacity(s, d) == 0.0))
    ev1, ev2 = [], []
    _apply(g1, ops, ev1)
    _apply(g2, ops, ev2)
    # Every kill leaves a tombstone in the log until a compaction drops it.
    assert sum(kills) > 2_000 > len(g2._slot_val)
    assert ev1 == ev2
    _same_graph(g1, g2)


@pytest.mark.parametrize("seed", range(8))
def test_batch_kernels_bit_identical(seed):
    """The batch on the dict oracle ≡ on the columnar graph read from its
    slot rows ≡ read from a fresh snapshot ≡ the scalar kernel, ghost
    targets included; a batch never builds or drops a snapshot."""
    ops = [op for op in _random_op_stream(seed) if op[0] != "csr"]
    g1, stale, fresh = TransferGraph(), ColumnarTransferGraph(), ColumnarTransferGraph()
    for g in (g1, stale, fresh):
        _apply(g, ops, [])
    fresh.build_csr()
    live = list(g1.nodes())
    if not live:
        pytest.skip("empty stream")
    for owner in live[:4]:
        targets = [p for p in live if p != owner] + ["ghost"]
        ref = maxflow_two_hop_batch(g1, owner, targets)
        assert maxflow_two_hop_batch(stale, owner, targets) == ref
        assert maxflow_two_hop_batch(fresh, owner, targets) == ref
        assert stale._csr is None and fresh._csr is not None
        for j in targets:
            assert ref[j] == (
                maxflow_two_hop(g1, j, owner).value,
                maxflow_two_hop(g1, owner, j).value,
            ), (owner, j)


def test_two_hop_paths_works_on_columnar():
    g1, g2 = TransferGraph(), ColumnarTransferGraph()
    for g in (g1, g2):
        g.set_transfer("a", "me", 100.0)
        g.set_transfer("a", "v", 50.0)
        g.set_transfer("v", "me", 30.0)
    ref = two_hop_paths(g1, "a", "me")
    got = two_hop_paths(g2, "a", "me")
    assert (ref.value, ref.paths) == (got.value, got.paths)
    assert got.value == 130.0
    assert len(got.paths) == 2
    g2.build_csr()
    snap = two_hop_paths(g2, "a", "me")
    assert (ref.value, ref.paths) == (snap.value, snap.paths)


# ---------------------------------------------------------------------------
# Node-level equivalence (backend selection is behaviour-invisible)
# ---------------------------------------------------------------------------


def _gossip_workload(seed: int, n_peers: int = 60, n_msgs: int = 50):
    rng = random.Random(seed)
    msgs = []
    for t in range(n_msgs):
        sender = rng.randrange(1, n_peers)  # 0 is the evaluating node
        records = tuple(
            HistoryRecord(
                counterparty=rng.randrange(n_peers),
                uploaded=rng.uniform(1, 200) * MB,
                downloaded=rng.uniform(1, 200) * MB,
            )
            for _ in range(rng.randint(1, 6))
        )
        msgs.append(BarterCastMessage(sender, float(t), records=records))
    return msgs


@pytest.mark.parametrize("seed", range(4))
def test_node_backend_equivalence_including_churn(seed):
    msgs = _gossip_workload(seed)
    nd = BarterCastNode(0, graph_backend="dict")
    nc = BarterCastNode(0, graph_backend="columnar")
    candidates = list(range(1, 40))
    rows_d, rows_c = [], []

    def same_cache_state():
        # One cache on both backends: evictions are counted eagerly and the
        # same entries are held after every step.
        assert nd.rep_cache_invalidations == nc.rep_cache_invalidations
        assert nd.rep_cache_size == nc.rep_cache_size

    for k, msg in enumerate(msgs):
        for n, rows in ((nd, rows_d), (nc, rows_c)):
            n.receive_message(msg)
            reps = n.reputations_of(candidates)
            rows.append(tuple(reps[c] for c in candidates))
        same_cache_state()
        if k == len(msgs) // 2:
            # Mid-run hard restart: both backends wipe identically.
            assert nd.wipe_shared_history() == nc.wipe_shared_history()
            same_cache_state()
    assert rows_d == rows_c
    assert nd.rep_cache_hits == nc.rep_cache_hits
    assert nd.rep_cache_misses == nc.rep_cache_misses


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        BarterCastNode(0, graph_backend="csr")


# ---------------------------------------------------------------------------
# Float determinism
# ---------------------------------------------------------------------------


def test_columnar_kernel_byte_identical_across_runs():
    """The columnar rows hold 2-hop terms in canonical order — ascending
    edge-slot order, i.e. the dict oracle's insertion order (an ascending
    interned-index order would *break* oracle bit-identity, see the module
    docstring) — so two independently-built replicas produce byte-identical
    reputation vectors from their snapshots."""
    def build():
        g = ColumnarTransferGraph()
        rng = random.Random(11)
        for _ in range(400):
            a, b = rng.sample(range(50), 2)
            g.set_transfer(a, b, g.capacity(a, b) + rng.uniform(0.1, 99.9))
        g.build_csr()
        return g

    g1, g2 = build(), build()
    targets = list(range(1, 50))
    r1 = maxflow_two_hop_batch(g1, 0, targets)
    r2 = maxflow_two_hop_batch(g2, 0, targets)
    b1 = np.array([r1[t] for t in targets]).tobytes()
    b2 = np.array([r2[t] for t in targets]).tobytes()
    assert b1 == b2
    # A write after the build drops the snapshot; the next batch reads the
    # slot rows (no rebuild) and must equal the scalar kernel byte for
    # byte — on the changed edge's endpoints and on the rest.
    g2.set_transfer(3, 0, g2.capacity(3, 0) + 7.25)
    assert g2._csr is None
    small = [3, 4, 5]
    r3 = maxflow_two_hop_batch(g2, 0, small)
    assert g2._csr is None
    want = [
        (maxflow_two_hop(g2, t, 0).value, maxflow_two_hop(g2, 0, t).value)
        for t in small
    ]
    assert np.array([r3[t] for t in small]).tobytes() == np.array(want).tobytes()
    assert r3[3] != r1[3] and (r3[4], r3[5]) == (r1[4], r1[5])
