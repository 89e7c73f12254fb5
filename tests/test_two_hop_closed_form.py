"""The 2-hop closed form is written down once; everything else calls it.

``repro.graph.maxflow.two_hop_flow`` finds the intermediaries with one
``dict.keys() & dict.keys()`` intersection and replaced four hand-copied
interpreted loops: the scalar kernel's, its ``record_paths`` twin's, and
the two inline copies (inflow and outflow) of the batch kernel.  Those
loops are kept here verbatim as the reference.  Every comparison below is
``==`` on floats: the same additions in the same order, not "close".
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# The replaced code, verbatim
# ---------------------------------------------------------------------------

def ref_two_hop_impl(graph, source, sink):
    """``_two_hop_impl`` with ``record_paths`` off, returning the value."""
    if not graph.has_node(source) or not graph.has_node(sink):
        return 0.0
    out_s = graph.successors(source)
    in_t = graph.predecessors(sink)
    total = out_s.get(sink, 0.0)
    # Scan the smaller neighbourhood for the intersection.
    if len(out_s) <= len(in_t):
        for v, c_sv in out_s.items():
            if v == sink:
                continue
            c_vt = in_t.get(v)
            if c_vt:
                total += min(c_sv, c_vt)
    else:
        for v, c_vt in in_t.items():
            if v == source:
                continue
            c_sv = out_s.get(v)
            if c_sv:
                total += min(c_sv, c_vt)
    return total


def ref_two_hop_paths(graph, source, sink):
    out_s = graph.successors(source)
    in_t = graph.predecessors(sink)
    paths = []
    c_st = out_s.get(sink, 0.0)
    total = c_st
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
    if len(out_s) <= len(in_t):
        for v, c_sv in out_s.items():
            if v == sink:
                continue
            c_vt = in_t.get(v)
            if c_vt:
                f = min(c_sv, c_vt)
                total += f
                paths.append(
                    FlowPath(
                        nodes=(source, v, sink),
                        flow=f,
                        bottleneck=(source, v) if c_sv <= c_vt else (v, sink),
                        residuals=(c_sv - f, c_vt - f),
                    )
                )
    else:
        for v, c_vt in in_t.items():
            if v == source:
                continue
            c_sv = out_s.get(v)
            if c_sv:
                f = min(c_sv, c_vt)
                total += f
                paths.append(
                    FlowPath(
                        nodes=(source, v, sink),
                        flow=f,
                        bottleneck=(source, v) if c_sv <= c_vt else (v, sink),
                        residuals=(c_sv - f, c_vt - f),
                    )
                )
    return total, tuple(paths)


def ref_two_hop_batch(graph, owner, targets):
    """The dict loop of ``_two_hop_batch_impl`` (counters left out)."""
    results = {}
    if not graph.has_node(owner):
        for j in targets:
            if j != owner:
                results[j] = (0.0, 0.0)
        return results
    out_i = graph.successors(owner)
    in_i = graph.predecessors(owner)
    len_out_i = len(out_i)
    len_in_i = len(in_i)
    out_i_get = out_i.get
    in_i_get = in_i.get
    successors = graph.successors
    predecessors = graph.predecessors
    has_node = graph.has_node

    for j in targets:
        if j == owner or j in results:
            continue
        if not has_node(j):
            results[j] = (0.0, 0.0)
            continue

        # inflow = maxflow2(j -> owner): direct edge plus, per intermediate
        # v, min(c(j, v), c(v, owner)), scanning the smaller side.
        out_j = successors(j)
        inflow = out_j.get(owner, 0.0)
        if len(out_j) <= len_in_i:
            for v, c_sv in out_j.items():
                if v == owner:
                    continue
                c_vt = in_i_get(v)
                if c_vt:
                    inflow += min(c_sv, c_vt)
        else:
            for v, c_vt in in_i.items():
                if v == j:
                    continue
                c_sv = out_j.get(v)
                if c_sv:
                    inflow += min(c_sv, c_vt)

        # outflow = maxflow2(owner -> j), same shape with roles swapped.
        in_j = predecessors(j)
        outflow = out_i_get(j, 0.0)
        if len_out_i <= len(in_j):
            for v, c_sv in out_i.items():
                if v == j:
                    continue
                c_vt = in_j.get(v)
                if c_vt:
                    outflow += min(c_sv, c_vt)
        else:
            for v, c_vt in in_j.items():
                if v == owner:
                    continue
                c_sv = out_i_get(v)
                if c_sv:
                    outflow += min(c_sv, c_vt)

        results[j] = (inflow, outflow)
    return results


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

#: Six peers are few enough that 24 writes make shared intermediaries the
#: rule; 6 and 7 are asked about but never written, so they stay absent.
PEERS = st.integers(min_value=0, max_value=5)
ABSENT = (6, 7)
#: Capacities whose sum depends on the order of addition (0.1 + 0.2 + 0.3
#: != 0.3 + 0.2 + 0.1; 1e16 swallows a 1.0 added after it), repeated so
#: that equal capacities meet in ``min``; 0.0 deletes the edge, and a
#: later write re-inserts it at the end of both adjacency dicts.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1.0, 1e16, 3.0e5]),
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
)
WRITES = st.lists(st.tuples(PEERS, PEERS, WEIGHTS), max_size=24)


def build(writes, cls=TransferGraph):
    graph = cls()
    for src, dst, nbytes in writes:
        if src != dst:
            graph.set_transfer(src, dst, nbytes)
    return graph


def shape(graph, source, sink):
    """``(min(|common|, 2), which view the old loop walked)``."""
    out_s = graph.successors(source)
    in_t = graph.predecessors(sink)
    common = sum(1 for v in out_s if v in in_t)
    return min(common, 2), "out" if len(out_s) <= len(in_t) else "in"


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def check_every_route(writes):
    graph = build(writes)
    columnar = build(writes, ColumnarTransferGraph)
    columnar.build_csr()
    metric = ReputationMetric()
    everyone = list(range(6)) + list(ABSENT)
    for owner in everyone:
        targets = [t for t in everyone if t != owner]
        want = ref_two_hop_batch(graph, owner, targets)
        for j in targets:
            inflow = ref_two_hop_impl(graph, j, owner)
            outflow = ref_two_hop_impl(graph, owner, j)
            # the old batch loops were themselves copies of the scalar loop
            assert want[j] == (inflow, outflow)
            assert two_hop_flow(graph.successors(j), graph.predecessors(owner), owner) == inflow
            assert maxflow_two_hop(graph, j, owner).value == inflow
            assert maxflow_two_hop(graph, owner, j).value == outflow
            assert maxflow_two_hop_pair(graph, owner, j) == (inflow, outflow)
            assert metric.reputation(graph, owner, j) == metric.scale(inflow - outflow)

            recorded = maxflow_two_hop(graph, owner, j, record_paths=True)
            ref_value, ref_paths = ref_two_hop_paths(graph, owner, j)
            assert ref_value == outflow
            assert recorded.value == outflow
            assert recorded.paths == ref_paths  # same order, flows, bottlenecks
            assert recorded.augmenting_paths == len(ref_paths)

        got = maxflow_two_hop_batch(graph, owner, targets + targets + [owner])
        assert got == want and list(got) == list(want)
        assert metric.reputation_batch(graph, owner, targets) == {
            j: metric.scale(i - o) for j, (i, o) in want.items()
        }
        with_paths = maxflow_two_hop_batch(graph, owner, targets, record_paths=True)
        assert with_paths == {
            j: (*want[j], ref_two_hop_paths(graph, j, owner)[1], ref_two_hop_paths(graph, owner, j)[1])
            for j in targets
        }
        # the same loop over the columnar graph's snapshot views, and the
        # vectorised kernel on its built CSR
        assert maxflow_two_hop_batch(columnar, owner, targets) == want
        if columnar.has_node(owner):
            assert two_hop_batch_arrays(columnar, owner, targets) == want


@settings(max_examples=200, deadline=None)
@given(WRITES)
def test_every_route_equals_the_replaced_loops(writes):
    check_every_route(writes)


def _fan(n_out_only, n_in_only, n_common, direct, equal=False):
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
    extra = (0, 3) if walk == "out" else (3, 0)
    graph = _fan(*extra, n_common, direct, equal)
    # the direct edge is one more successor of s and predecessor of t
    assert shape(graph, "s", "t") == (min(n_common, 2), walk)
    want, want_paths = ref_two_hop_paths(graph, "s", "t")
    assert want == ref_two_hop_impl(graph, "s", "t")
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


def test_seeded_random_graphs_reach_every_shape():
    """Graphs as dense as the strategy's (same peers, same capacity pool,
    same write count) show every (|common|, walked view) shape the closed
    form distinguishes, and pass the property on each."""
    rng = random.Random(21)
    pool = [0.0, 0.1, 0.2, 0.3, 1.0, 1.0, 1e16, 3.0e5]
    seen = set()
    for _ in range(40):
        writes = [
            (rng.randrange(6), rng.randrange(6), rng.choice(pool + [rng.uniform(1e-3, 1e12)]))
            for _ in range(24)
        ]
        graph = build(writes)
        seen.update(shape(graph, s, t) for s in range(6) for t in range(6) if s != t)
        check_every_route(writes)
    assert seen == {(n, walk) for n in (0, 1, 2) for walk in ("out", "in")}


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def _delta(call):
    before = snapshot_kernel_invocations()
    call()
    return kernel_invocations_delta(before)


def test_kernel_invocation_deltas_per_call():
    graph = _fan(1, 2, 3, direct=True)
    metric = ReputationMetric()
    assert _delta(lambda: maxflow_two_hop(graph, "s", "t")) == {"maxflow_two_hop": 1}
    assert _delta(lambda: maxflow_two_hop(graph, "s", "t", record_paths=True)) == {
        "maxflow_two_hop": 1
    }
    assert _delta(lambda: maxflow_two_hop_pair(graph, "s", "t")) == {"maxflow_two_hop": 2}
    assert _delta(lambda: metric.reputation(graph, "s", "t")) == {"maxflow_two_hop": 2}
    assert _delta(lambda: maxflow_two_hop_batch(graph, "s", ["t", "c0", "t", "s", "ghost"])) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 3,
    }
    assert _delta(lambda: maxflow_two_hop_batch(graph, "s", ["t", "c0"], record_paths=True)) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 2,
    }
    assert _delta(lambda: metric.reputation_batch(graph, "s", ["t"])) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 1,
    }
    assert _delta(lambda: two_hop_flow({}, {}, "t")) == {}
    assert "maxflow_two_hop_pair" not in KERNEL_INVOCATIONS


@pytest.mark.parametrize("cls", [TransferGraph, ColumnarTransferGraph])
@pytest.mark.parametrize("record_paths", [False, True])
def test_batch_counts_its_targets_when_the_owner_is_absent(cls, record_paths):
    """Every exit of the batch kernel counts the results it returns; the
    owner-not-in-graph one used to return before the counter."""
    graph = cls()
    graph.set_transfer("a", "b", 1.0)
    if cls is ColumnarTransferGraph:
        graph.build_csr()  # a fresh CSR must not send an absent owner to the array kernel
    empty = (0.0, 0.0, (), ()) if record_paths else (0.0, 0.0)
    before = snapshot_kernel_invocations()
    got = maxflow_two_hop_batch(graph, "ghost", ["a", "b", "a", "ghost"], record_paths)
    assert got == {"a": empty, "b": empty}
    assert kernel_invocations_delta(before) == {
        "maxflow_two_hop_batch": 1,
        "maxflow_two_hop_batch_targets": 2,
    }


def test_profiler_sees_two_scalar_kernel_calls_per_reputation():
    """The direct scalar route is counted, and while a profiler is active
    also timed, as the two ``maxflow_two_hop`` calls it stands for."""
    from repro.obs.profile import Profiler, activate

    graph = _fan(1, 2, 3, direct=True)
    metric = ReputationMetric()
    plain = metric.reputation(graph, "s", "t")
    prof = Profiler()
    with activate(prof):
        delta = _delta(lambda: metric.reputation(graph, "s", "t"))
        assert metric.reputation(graph, "s", "t") == plain
    assert delta == {"maxflow_two_hop": 2}
    assert prof.snapshot()["kernels"]["maxflow_two_hop"]["count"] == 4
