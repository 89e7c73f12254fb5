"""System ≡ model for the 2-hop closed form and everything that reads it.

``repro.graph.maxflow.two_hop_flow`` is the one place the closed form is
written; the scalar kernel, its ``record_paths`` twin, the pair, the batch
(dict loop and the columnar array kernel), the metric, rank and ban all
call it.  Each is checked against ``model.two_hop``, the closed form by
scan over a dict graph given the same writes.  Every comparison is ``==``
on floats: the same additions in the same order, not "close".
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy
from repro.core.reputation import ReputationMetric
from repro.graph.batch import maxflow_two_hop_batch
from repro.graph.columnar import ColumnarTransferGraph, two_hop_batch_arrays
from repro.graph.maxflow import (
    KERNEL_INVOCATIONS,
    FlowPath,
    kernel_invocations_delta,
    maxflow_two_hop,
    maxflow_two_hop_pair,
    snapshot_kernel_invocations,
    two_hop_flow,
)
from repro.graph.transfer_graph import TransferGraph
from tests import model

#: Every 2-hop example runs on each graph class that ships.
GRAPHS = {"dict": TransferGraph, "columnar": ColumnarTransferGraph}
#: Capacities whose sum depends on the order of addition (0.1 + 0.2 + 0.3
#: != 0.3 + 0.2 + 0.1; 1e16 swallows a 1.0 added after it), repeated so
#: that equal capacities meet in ``min``; 0.0 deletes the edge, and a
#: later write re-inserts it at the end of both adjacency dicts.
POOL = [0.0, 0.1, 0.2, 0.3, 1.0, 1.0, 1e16, 3.0e5]
WEIGHTS = st.one_of(st.sampled_from(POOL), st.floats(min_value=1e-3, max_value=1e12))
#: Six peers are few enough that 24 writes make shared intermediaries the rule.
WRITES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), WEIGHTS), max_size=24)


def build(writes, graph):
    for src, dst, nbytes in writes:
        if src != dst:
            graph.set_transfer(src, dst, nbytes)
    return graph


def states(writes):
    """A dict graph after each of ``writes`` (one object, yielded again)."""
    graph = TransferGraph()
    for write in writes:
        yield build([write], graph)


def shape(graph, s, t):
    """``(min(|common|, 2), the view the sum walks, a direct edge?, an
    intermediary with equal capacities?)``."""
    out_s, in_t = graph.successors(s), graph.predecessors(t)
    common = out_s.keys() & in_t.keys()
    walk = "out" if len(out_s) <= len(in_t) else "in"
    return min(len(common), 2), walk, t in out_s, any(out_s[v] == in_t[v] for v in common)


def check_every_route(writes):
    """Every 2-hop route over each graph class against the model over a
    dict graph given the same writes, and what each route counts: a scalar
    call one ``maxflow_two_hop``, a pair or a reputation two, a batch one
    call and its distinct targets other than the owner.  A node sends the
    batch kernel only its targets inside the reach set (``model.reach``
    of the graphs the writes passed through), and skips the call when
    there are none."""
    ref = build(writes, TransferGraph())
    graphs = {backend: build(writes, cls()) for backend, cls in GRAPHS.items()}
    everyone = list(dict.fromkeys(p for w in writes for p in w[:2])) + ["ghost"]
    metric, flows_of, counts = ReputationMetric(), {}, Counter()
    before = snapshot_kernel_invocations()
    for owner in everyone:
        targets = [t for t in everyone if t != owner]
        want = {j: (model.two_hop(ref, j, owner), model.two_hop(ref, owner, j)) for j in targets}
        flows = flows_of[owner] = {j: (i[0], o[0]) for j, (i, o) in want.items()}
        reps = {j: model.reputation(ref, owner, j) for j in targets}
        reach = model.reach(states(writes), owner)
        near = [j for j in targets if j in reach]
        for backend, graph in graphs.items():
            for j, ((inflow, _), (outflow, paths)) in want.items():
                assert maxflow_two_hop(graph, j, owner).value == inflow
                got = maxflow_two_hop(graph, owner, j, record_paths=True)
                assert (got.value, got.paths, got.augmenting_paths) == (outflow, paths, len(paths))
                assert maxflow_two_hop_pair(graph, owner, j) == (inflow, outflow)
                assert metric.reputation(graph, owner, j) == reps[j]
            got = maxflow_two_hop_batch(graph, owner, targets + targets + [owner])
            assert got == flows and list(got) == targets
            node = BarterCastNode(owner, graph_backend=backend)
            build(writes, node.graph)
            assert node.reputations_of(targets) == reps
            assert node.rank_by_reputation(targets) == model.rank(ref, owner, targets)
            assert BanPolicy(-0.5).allowed(node, targets) == model.ban(ref, owner, targets, -0.5)
            counts["maxflow_two_hop"] += 6 * len(targets)
            counts["maxflow_two_hop_batch"] += 1 + bool(near)  # the node asks once
            counts["maxflow_two_hop_batch_targets"] += len(targets) + len(near)
    columnar = graphs["columnar"]
    columnar.build_csr()  # a fresh CSR sends a present owner's batch to the array kernel
    for owner, flows in flows_of.items():
        assert maxflow_two_hop_batch(columnar, owner, list(flows)) == flows
        counts["maxflow_two_hop_batch"] += 1
        counts["maxflow_two_hop_batch_targets"] += len(flows)
        if columnar.has_node(owner):
            assert two_hop_batch_arrays(columnar, owner, list(flows)) == flows
            counts["maxflow_two_hop_batch_columnar"] += 1
    assert kernel_invocations_delta(before) == dict(+counts)


@settings(max_examples=200, deadline=None)
@given(WRITES)
def test_every_route_equals_the_replaced_loops(writes):
    check_every_route(writes)


def test_seeded_random_graphs_reach_every_shape():
    """Graphs as dense as the strategy's show every shape the closed form
    distinguishes, under both summation orders, and pass every route."""
    rng, seen = random.Random(21), set()
    for _ in range(40):
        pick = lambda: rng.choice(POOL + [rng.uniform(1e-3, 1e12)])
        writes = [(rng.randrange(6), rng.randrange(6), pick()) for _ in range(24)]
        graph = build(writes, TransferGraph())
        seen.update(shape(graph, s, t) for s in range(6) for t in range(6) if s != t)
        check_every_route(writes)
    assert seen == {
        (n, walk, direct, equal and n > 0)
        for n in (0, 1, 2) for walk in ("out", "in") for direct in (False, True) for equal in (False, True)
    }


def fan(n_out_only, n_in_only, n_common, direct, equal=False):
    """``s`` with ``n_out_only + n_common`` successors, ``t`` with
    ``n_in_only + n_common`` predecessors, ``n_common`` of them shared."""
    graph = TransferGraph()
    weights = iter([0.1, 1e16, 0.2, 1.0, 0.3, 3.0e5, 0.7, 2.5] * 4)
    if direct:
        graph.set_transfer("s", "t", 0.5)
    for k in range(n_common):
        w = next(weights)
        graph.set_transfer("s", f"c{k}", w)
        graph.set_transfer(f"c{k}", "t", w if equal else next(weights))
    for k in range(n_out_only):
        graph.set_transfer("s", f"o{k}", next(weights))
    for k in range(n_in_only):
        graph.set_transfer(f"i{k}", "t", next(weights))
    return graph


@pytest.mark.parametrize("equal", [False, True], ids=["distinct", "equal-capacities"])
@pytest.mark.parametrize("direct", [False, True], ids=["no-direct", "direct"])
@pytest.mark.parametrize("walk", ["out", "in"])
@pytest.mark.parametrize("n_common", [0, 1, 2, 5])
def test_each_intersection_size_under_both_branch_orders(n_common, walk, direct, equal):
    graph = fan(*((0, 3) if walk == "out" else (3, 0)), n_common, direct, equal)
    # the direct edge is one more successor of s and predecessor of t
    assert shape(graph, "s", "t") == (min(n_common, 2), walk, direct, equal and n_common > 0)
    want, want_paths = model.two_hop(graph, "s", "t")
    assert maxflow_two_hop(graph, "s", "t").value == want
    recorded = maxflow_two_hop(graph, "s", "t", record_paths=True)
    assert (recorded.value, recorded.paths) == (want, want_paths)
    assert len(want_paths) == n_common + direct
    assert maxflow_two_hop_batch(graph, "s", ["t"])["t"][1] == want
    assert maxflow_two_hop_batch(graph, "t", ["s"])["s"][0] == want


def test_target_that_is_only_a_direct_neighbour():
    graph = TransferGraph()
    graph.set_transfer("s", "t", 7.5)
    graph.set_transfer("s", "x", 1.0)
    graph.set_transfer("y", "t", 2.0)
    assert maxflow_two_hop(graph, "s", "t").value == 7.5
    assert maxflow_two_hop(graph, "t", "s").value == 0.0
    assert maxflow_two_hop_pair(graph, "t", "s") == (7.5, 0.0)
    assert maxflow_two_hop(graph, "s", "t", record_paths=True).paths == (
        FlowPath(nodes=("s", "t"), flow=7.5, bottleneck=("s", "t"), residuals=(0.0,)),
    )


# --- Counters ------------------------------------------------------------------

def delta(call):
    before = snapshot_kernel_invocations()
    call()
    return kernel_invocations_delta(before)


def test_kernel_invocation_deltas_per_call():
    graph = fan(1, 2, 3, direct=True)
    metric = ReputationMetric()
    assert delta(lambda: maxflow_two_hop(graph, "s", "t")) == {"maxflow_two_hop": 1}
    assert delta(lambda: maxflow_two_hop(graph, "s", "t", record_paths=True)) == {
        "maxflow_two_hop": 1
    }
    assert delta(lambda: maxflow_two_hop_pair(graph, "s", "t")) == {"maxflow_two_hop": 2}
    assert delta(lambda: metric.reputation(graph, "s", "t")) == {"maxflow_two_hop": 2}
    assert delta(lambda: maxflow_two_hop_batch(graph, "s", ["t", "c0", "t", "s", "ghost"])) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 3,
    }
    assert delta(lambda: metric.reputation_batch(graph, "s", ["t"])) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 1,
    }
    assert delta(lambda: two_hop_flow({}, {}, "t")) == {}
    assert "maxflow_two_hop_pair" not in KERNEL_INVOCATIONS


@pytest.mark.parametrize("cls", [TransferGraph, ColumnarTransferGraph])
@pytest.mark.parametrize("removed", [False, True])
def test_batch_counts_its_targets_when_the_owner_is_absent(cls, removed):
    """Every exit of the batch kernel counts the results it returns, for
    an owner never seen and for one whose edges were removed (the
    columnar graph drops its node too; the dict graph keeps it)."""
    graph = cls()
    graph.set_transfer("a", "b", 1.0)
    if removed:
        graph.set_transfer("ghost", "a", 2.0)
        graph.set_transfer("b", "ghost", 3.0)
        if cls is ColumnarTransferGraph:
            graph.remove_node("ghost")
        else:
            graph.set_transfer("ghost", "a", 0.0)
            graph.set_transfer("b", "ghost", 0.0)
    if cls is ColumnarTransferGraph:
        graph.build_csr()  # a fresh CSR must not send an absent owner to the array kernel
    before = snapshot_kernel_invocations()
    got = maxflow_two_hop_batch(graph, "ghost", ["a", "b", "a", "ghost"])
    assert got == {"a": (0.0, 0.0), "b": (0.0, 0.0)}
    assert kernel_invocations_delta(before) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 2,
    }


def test_profiler_sees_two_scalar_kernel_calls_per_reputation():
    """The direct scalar route is counted as the two ``maxflow_two_hop``
    calls it stands for, and repeats its value."""
    graph = fan(1, 2, 3, direct=True)
    metric = ReputationMetric()
    plain = metric.reputation(graph, "s", "t")
    counted = delta(lambda: metric.reputation(graph, "s", "t"))
    assert metric.reputation(graph, "s", "t") == plain
    assert counted == {"maxflow_two_hop": 2}
