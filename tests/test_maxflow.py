"""Unit and property tests for the 2-hop kernel and for the paper's
Algorithm 1 it is checked against (``tests/model.py``)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from networkx.algorithms.flow import edmonds_karp

from repro.graph.maxflow import maxflow_two_hop
from repro.graph.transfer_graph import TransferGraph
from tests.conftest import graph_of, random_graphs, to_networkx
from tests.model import bounded_ford_fulkerson, ford_fulkerson


def nx_maxflow(graph: TransferGraph, s, t) -> float:
    # Edmonds–Karp: networkx's default preflow-push (and Dinitz) raise on
    # some float-capacity graphs that random_graphs() draws.
    g = to_networkx(graph)
    if s not in g or t not in g:
        return 0.0
    value, _ = nx.maximum_flow(g, s, t, capacity="capacity", flow_func=edmonds_karp)
    return float(value)


class TestFordFulkerson:
    def test_direct_edge(self):
        g = graph_of([("s", "t", 7.0)])
        assert ford_fulkerson(g, "s", "t").value == 7.0

    def test_no_path(self):
        g = graph_of([("t", "s", 7.0)])
        assert ford_fulkerson(g, "s", "t").value == 0.0

    def test_chain_bottleneck(self):
        g = graph_of([("s", "a", 10.0), ("a", "b", 3.0), ("b", "t", 10.0)])
        assert ford_fulkerson(g, "s", "t").value == 3.0

    def test_diamond(self, diamond_graph):
        assert ford_fulkerson(diamond_graph, "s", "t").value == pytest.approx(3.5)

    def test_missing_nodes_zero(self):
        g = TransferGraph()
        g.add_node("s")
        assert ford_fulkerson(g, "s", "t").value == 0.0
        assert ford_fulkerson(g, "x", "s").value == 0.0

    def test_same_source_sink_raises(self):
        g = TransferGraph()
        g.add_node("s")
        with pytest.raises(ValueError):
            ford_fulkerson(g, "s", "s")

    def test_requires_residual_reversal(self):
        # Classic case where greedy DFS must undo flow via reverse edges:
        # s->a=1, s->b=1, a->b=1, a->t=1, b->t=1. Maxflow = 2 but a greedy
        # path s->a->b->t blocks both unless reversal works.
        g = graph_of(
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "b", 1.0), ("a", "t", 1.0), ("b", "t", 1.0)]
        )
        assert ford_fulkerson(g, "s", "t").value == 2.0

    def test_flow_assignment_respects_capacities(self, diamond_graph):
        result = ford_fulkerson(diamond_graph, "s", "t")
        for (i, j), f in result.flows.items():
            assert f <= diamond_graph.capacity(i, j) + 1e-9
            assert f >= 0

    def test_flow_conservation(self, diamond_graph):
        result = ford_fulkerson(diamond_graph, "s", "t")
        balance = {}
        for (i, j), f in result.flows.items():
            balance[i] = balance.get(i, 0.0) - f
            balance[j] = balance.get(j, 0.0) + f
        for node, net in balance.items():
            if node == "s":
                assert net == pytest.approx(-result.value)
            elif node == "t":
                assert net == pytest.approx(result.value)
            else:
                assert net == pytest.approx(0.0)

    def test_matches_networkx_on_fixed_graph(self, diamond_graph):
        assert ford_fulkerson(diamond_graph, "s", "t").value == pytest.approx(
            nx_maxflow(diamond_graph, "s", "t")
        )

    def test_cycle_does_not_loop(self):
        g = graph_of(
            [("s", "a", 2.0), ("a", "b", 2.0), ("b", "a", 2.0), ("b", "t", 2.0)]
        )
        assert ford_fulkerson(g, "s", "t").value == 2.0


class TestBoundedFordFulkerson:
    def test_hop_limit_one_only_direct_edge(self, diamond_graph):
        assert bounded_ford_fulkerson(diamond_graph, "s", "t", max_hops=1).value == 0.5

    def test_hop_limit_two_includes_intermediaries(self, diamond_graph):
        assert bounded_ford_fulkerson(diamond_graph, "s", "t", max_hops=2).value == pytest.approx(3.5)

    def test_three_hop_path_excluded_at_two(self):
        g = graph_of([("s", "a", 5.0), ("a", "b", 5.0), ("b", "t", 5.0)])
        assert bounded_ford_fulkerson(g, "s", "t", max_hops=2).value == 0.0
        assert bounded_ford_fulkerson(g, "s", "t", max_hops=3).value == 5.0

    def test_invalid_hop_limit(self, diamond_graph):
        with pytest.raises(ValueError):
            bounded_ford_fulkerson(diamond_graph, "s", "t", max_hops=0)

    def test_large_bound_equals_exact(self, diamond_graph):
        exact = ford_fulkerson(diamond_graph, "s", "t").value
        assert bounded_ford_fulkerson(diamond_graph, "s", "t", max_hops=10).value == pytest.approx(exact)


class TestTwoHopClosedForm:
    def test_direct_plus_intermediaries(self, diamond_graph):
        assert maxflow_two_hop(diamond_graph, "s", "t").value == pytest.approx(3.5)

    def test_empty_graph(self):
        g = TransferGraph()
        assert maxflow_two_hop(g, "s", "t").value == 0.0

    def test_same_endpoints_raise(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            maxflow_two_hop(g, "s", "s")

    def test_min_rule_per_intermediary(self):
        g = graph_of([("s", "v", 10.0), ("v", "t", 4.0)])
        assert maxflow_two_hop(g, "s", "t").value == 4.0

    def test_ignores_longer_paths(self):
        g = graph_of([("s", "a", 5.0), ("a", "b", 5.0), ("b", "t", 5.0)])
        assert maxflow_two_hop(g, "s", "t").value == 0.0

    def test_scan_direction_symmetry(self):
        # Exercise both the out_s-smaller and in_t-smaller scan branches.
        g = TransferGraph()
        for i in range(5):
            g.set_transfer("s", f"v{i}", 1.0)
            g.set_transfer(f"v{i}", "t", 2.0)
        g.set_transfer("u0", "t", 9.0)  # in_t larger than out_s
        assert maxflow_two_hop(g, "s", "t").value == 5.0
        h = TransferGraph()
        for i in range(5):
            h.set_transfer("s", f"v{i}", 1.0)
        h.set_transfer("v0", "t", 2.0)  # out_s larger than in_t
        assert maxflow_two_hop(h, "s", "t").value == 1.0


# ---------------------------------------------------------------------------
# Property-based equivalences
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(random_graphs())
def test_two_hop_closed_form_equals_bounded_ff(g):
    v1 = maxflow_two_hop(g, 0, 1).value
    v2 = bounded_ford_fulkerson(g, 0, 1, max_hops=2).value
    assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(random_graphs())
def test_ford_fulkerson_matches_networkx(g):
    ours = ford_fulkerson(g, 0, 1).value
    theirs = nx_maxflow(g, 0, 1)
    assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_bounded_flow_monotone_in_hops_up_to_two(g):
    # The bounded kernel is exact for K<=2, so K=1 <= K=2 <= exact.
    v1 = bounded_ford_fulkerson(g, 0, 1, max_hops=1).value
    v2 = bounded_ford_fulkerson(g, 0, 1, max_hops=2).value
    vx = ford_fulkerson(g, 0, 1).value
    assert v1 <= v2 + 1e-9
    assert v2 <= vx + 1e-9


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_two_hop_bounded_by_incident_capacity(g):
    # The paper's security property: flow toward the sink is bounded by the
    # sink's total incoming capacity, and flow out of the source by its
    # outgoing capacity.
    v = maxflow_two_hop(g, 0, 1).value
    in_cap = sum(g.predecessors(1).values())
    out_cap = sum(g.successors(0).values())
    assert v <= in_cap + 1e-9
    assert v <= out_cap + 1e-9


def test_two_hop_equals_bounded_on_a_mature_view():
    """A view the size a peer's subjective graph reaches (300 peers, ~12
    edges each, MB-to-GB lognormal totals): closed form ≡ bounded
    Ford–Fulkerson at K = 2 toward sinks 1–19."""
    rng = np.random.default_rng(7)
    src = rng.integers(0, 300, size=3600).tolist()
    dst = rng.integers(0, 300, size=3600).tolist()
    weights = rng.lognormal(18.0, 1.5, size=3600).tolist()
    g = graph_of([(s, d, w) for s, d, w in zip(src, dst, weights) if s != d])
    for sink in range(1, 20):
        a = maxflow_two_hop(g, 0, sink).value
        b = bounded_ford_fulkerson(g, 0, sink, max_hops=2).value
        assert a == pytest.approx(b, rel=1e-9, abs=1e-6)
