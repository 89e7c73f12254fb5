"""Columnar backend: interner stability, dict-oracle equivalence, kernels.

The dict-backed :class:`~repro.graph.transfer_graph.TransferGraph` is the
semantic oracle; every test here pins the columnar backend — storage,
events, the array kernel, and node-level behaviour — to it bit-for-bit.
The interner contract (indices never reused, never remapped, surviving
churn wipes and log compaction) is what the CSR snapshots rely on, so it
gets its own section.
"""

import math
import random

import numpy as np
import pytest

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.reputation import MB
from repro.graph.batch import maxflow_two_hop_batch
from repro.graph.columnar import ColumnarTransferGraph, two_hop_batch_arrays
from repro.graph.interner import PeerInterner
from repro.graph.maxflow import KERNEL_INVOCATIONS, maxflow_two_hop
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
        """A hard-restart wipe (forget every reporter) empties the graph's
        live state but must not move any interned index."""
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
        interner = node.graph.interner
        before = {p: interner.lookup(p) for p in ("r1", "a", "b")}
        assert all(i >= 0 for i in before.values())
        node.wipe_shared_history()
        after = {p: interner.lookup(p) for p in ("r1", "a", "b")}
        assert after == before
        # Re-learning the same peers reuses the same indices.
        node.receive_message(
            BarterCastMessage("r1", 2.0, records=(HistoryRecord("a", 1 * MB, 0.0),))
        )
        assert {p: interner.lookup(p) for p in ("r1", "a", "b")} == before

    def test_indices_survive_log_compaction(self):
        g = ColumnarTransferGraph()
        for i in range(20):
            g.add_transfer(f"p{i}", f"p{(i + 1) % 20}", 10.0)
        before = {f"p{i}": g.peer_index(f"p{i}") for i in range(20)}
        for i in range(0, 20, 2):
            g.set_transfer(f"p{i}", f"p{(i + 1) % 20}", 0.0)
        removed = g.compact()
        assert removed == 10
        assert {f"p{i}": g.peer_index(f"p{i}") for i in range(20)} == before


# ---------------------------------------------------------------------------
# Graph-level dict-oracle equivalence
# ---------------------------------------------------------------------------


def _random_op_stream(seed: int, n_peers: int = 8, n_ops: int = 60):
    rng = random.Random(seed)
    peers = [f"p{i}" for i in range(n_peers)]
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        a, b = rng.sample(peers, 2)
        if roll < 0.5:
            ops.append(("add", a, b, round(rng.uniform(0.1, 9.9), 3)))
        elif roll < 0.72:
            ops.append(("set", a, b, round(rng.uniform(0.1, 9.9), 3)))
        elif roll < 0.88:
            ops.append(("set", a, b, 0.0))
        else:
            ops.append(("remove", a, None, None))
    return ops


def _apply(graph, ops, events):
    """Apply ``ops``.  The dict oracle only overwrites totals: it takes an
    add as the accumulated total (``old + v``, the columnar arithmetic)
    and a node removal as every incident edge written to zero, out-edges
    then in-edges (the columnar notification order); the node stays."""
    graph.subscribe(lambda s, d: events.append((s, d)))
    columnar = isinstance(graph, ColumnarTransferGraph)
    for op, a, b, v in ops:
        if op == "set":
            graph.set_transfer(a, b, v)
        elif columnar:
            graph.add_transfer(a, b, v) if op == "add" else graph.remove_node(a)
        elif op == "add":
            graph.set_transfer(a, b, graph.capacity(a, b) + v)
        else:
            for dst in list(graph.successors(a)):
                graph.set_transfer(a, dst, 0.0)
            for src in list(graph.predecessors(a)):
                graph.set_transfer(src, a, 0.0)


def _removed(ops):
    """Nodes a removal took out and no later write named again."""
    gone = set()
    for op, a, b, _ in ops:
        if op == "remove":
            gone.add(a)
        else:
            gone -= {a, b}
    return gone


@pytest.mark.parametrize("seed", range(8))
def test_op_stream_equivalence_with_dict_oracle(seed):
    ops = _random_op_stream(seed)
    g1, g2 = TransferGraph(), ColumnarTransferGraph()
    ev1, ev2 = [], []
    _apply(g1, ops, ev1)
    _apply(g2, ops, ev2)
    assert ev1 == ev2  # listener event order is part of the contract
    assert g2.total_bytes == math.fsum(w for _, _, w in g1.edges())
    live = set(g1.nodes()) - _removed(ops)
    assert sorted(live, key=repr) == sorted(g2.nodes(), key=repr)
    for p in g1.nodes():
        # Order matters: snapshot iteration order is the summation order.
        assert list(g1.successors(p).items()) == list(g2.successors(p).items())
        assert list(g1.predecessors(p).items()) == list(g2.predecessors(p).items())
        assert g2.net_flow(p) == sum(g1.successors(p).values()) - sum(
            g1.predecessors(p).values()
        )


@pytest.mark.parametrize("seed", range(8))
def test_batch_kernels_bit_identical(seed):
    """Array kernel ≡ dict loop on the columnar graph ≡ dict loop on the
    dict oracle ≡ scalar kernel, ghost targets included."""
    ops = _random_op_stream(seed)
    g1, g2, g3 = TransferGraph(), ColumnarTransferGraph(), ColumnarTransferGraph()
    for g in (g1, g2, g3):
        _apply(g, ops, [])
    live = [p for p in g1.nodes() if g2.has_node(p)]
    if not live:
        pytest.skip("empty stream")
    for owner in live[:4]:
        targets = [p for p in live if p != owner] + ["ghost"]
        ref = maxflow_two_hop_batch(g1, owner, targets)
        arr = two_hop_batch_arrays(g2, owner, targets)
        assert not g3.csr_fresh  # never built: the dispatcher must not build it
        loop = maxflow_two_hop_batch(g3, owner, targets)
        assert not g3.csr_fresh
        for j in targets:
            assert ref[j] == arr[j], (owner, j)
            assert ref[j] == loop[j], (owner, j)
            assert ref[j] == (
                maxflow_two_hop(g1, j, owner).value,
                maxflow_two_hop(g1, owner, j).value,
            ), (owner, j)


def test_dispatch_uses_array_kernel_when_csr_fresh():
    g = ColumnarTransferGraph()
    for i in range(40):
        g.add_transfer(f"p{i}", f"p{(i + 3) % 40}", float(i + 1))
    g.build_csr()
    assert g.csr_fresh
    before = KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"]
    maxflow_two_hop_batch(g, "p0", [f"p{i}" for i in range(1, 5)])
    assert KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"] == before + 1


def test_record_paths_works_on_columnar():
    g1, g2 = TransferGraph(), ColumnarTransferGraph()
    for g in (g1, g2):
        g.set_transfer("a", "me", 100.0)
        g.set_transfer("a", "v", 50.0)
        g.set_transfer("v", "me", 30.0)
    ref = maxflow_two_hop(g1, "a", "me", record_paths=True)
    got = maxflow_two_hop(g2, "a", "me", record_paths=True)
    assert (ref.value, ref.paths) == (got.value, got.paths)
    assert got.value == 130.0
    assert len(got.paths) == 2


def test_bulk_load_matches_incremental_build():
    rng = np.random.default_rng(3)
    n = 300
    src = rng.integers(0, n, size=2000)
    dst = rng.integers(0, n, size=2000)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    _, first = np.unique(src * n + dst, return_index=True)
    first.sort()
    src, dst = src[first], dst[first]
    val = rng.uniform(1.0, 100.0, size=src.shape[0])

    bulk = ColumnarTransferGraph.from_edge_arrays(n, src, dst, val)
    inc = ColumnarTransferGraph()
    for s, d, v in zip(src.tolist(), dst.tolist(), val.tolist()):
        inc.set_transfer(int(s), int(d), float(v))
    assert bulk.num_edges == inc.num_edges
    # Row contents match (bulk declares all n nodes up front, so global
    # node order differs from first-appearance order; per-row order is
    # what the kernels consume).
    for p in range(n):
        assert list(bulk.successors(p).items()) == list(inc.successors(p).items())
    # Mutating a lazily-loaded graph materializes the python rows first.
    bulk.add_transfer(int(src[0]), int(dst[0]), 5.0)
    assert bulk.capacity(int(src[0]), int(dst[0])) == pytest.approx(
        float(val[0]) + 5.0
    )


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
    nd = BarterCastNode(0, cache_mode="dirty", graph_backend="dict")
    nc = BarterCastNode(0, cache_mode="dirty", graph_backend="columnar")
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
    """The columnar kernels sum 2-hop terms in canonical order — ascending
    edge-slot order, i.e. the dict oracle's insertion order (an ascending
    interned-index order would *break* oracle bit-identity, see the module
    docstring) — so two independently-built replicas produce byte-identical
    reputation vectors."""
    def build():
        g = ColumnarTransferGraph()
        rng = random.Random(11)
        for _ in range(400):
            a, b = rng.sample(range(50), 2)
            g.add_transfer(a, b, rng.uniform(0.1, 99.9))
        return g

    g1, g2 = build(), build()
    targets = list(range(1, 50))
    r1 = two_hop_batch_arrays(g1, 0, targets)
    r2 = two_hop_batch_arrays(g2, 0, targets)
    b1 = np.array([r1[t] for t in targets]).tobytes()
    b2 = np.array([r2[t] for t in targets]).tobytes()
    assert b1 == b2
    # Stale CSR, small batch: a write after the build sends the next batch
    # through the dict loop (no rebuild), which must equal the scalar kernel
    # byte for byte — on the changed edge's endpoints and on the rest.
    g2.add_transfer(3, 0, 7.25)
    assert not g2.csr_fresh
    calls = KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"]
    small = [3, 4, 5]
    r3 = maxflow_two_hop_batch(g2, 0, small)
    assert KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"] == calls
    assert not g2.csr_fresh
    want = [
        (maxflow_two_hop(g2, t, 0).value, maxflow_two_hop(g2, 0, t).value)
        for t in small
    ]
    assert np.array([r3[t] for t in small]).tobytes() == np.array(want).tobytes()
    assert r3[3] != r1[3] and (r3[4], r3[5]) == (r1[4], r1[5])
