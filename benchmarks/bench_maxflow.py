"""Micro-benchmarks of the maxflow kernels.

The 2-hop closed form is BarterCast's online hot path (evaluated on every
choke decision under the rank/ban policies); these benches quantify its
advantage over the generic kernels and over networkx on graphs of the
size a peer's subjective view actually reaches.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph.maxflow import (
    bounded_ford_fulkerson,
    ford_fulkerson,
    maxflow_two_hop,
)
from repro.graph.transfer_graph import TransferGraph


def random_graph(num_nodes: int, avg_degree: float, seed: int) -> TransferGraph:
    rng = np.random.default_rng(seed)
    g = TransferGraph()
    for node in range(num_nodes):
        g.add_node(node)
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    weights = rng.lognormal(18.0, 1.5, size=num_edges)  # ~ MB-GB in bytes
    totals = {}  # a pair drawn twice carries the sum of its draws
    for s, d, w in zip(src, dst, weights):
        if s != d:
            totals[int(s), int(d)] = totals.get((int(s), int(d)), 0.0) + float(w)
    for (s, d), w in totals.items():
        g.set_transfer(s, d, w)
    return g


@pytest.fixture(scope="module")
def local_view():
    """A graph the size of a mature subjective view (hundreds of peers)."""
    return random_graph(num_nodes=300, avg_degree=12.0, seed=7)


def test_bench_two_hop_kernel(benchmark, local_view):
    result = benchmark(lambda: maxflow_two_hop(local_view, 0, 1).value)
    assert result >= 0.0


def test_bench_bounded_ford_fulkerson(benchmark, local_view):
    result = benchmark(
        lambda: bounded_ford_fulkerson(local_view, 0, 1, max_hops=2).value
    )
    assert result >= 0.0


def test_bench_exact_ford_fulkerson(benchmark, local_view):
    result = benchmark(lambda: ford_fulkerson(local_view, 0, 1).value)
    assert result >= 0.0


def test_bench_networkx_reference(benchmark, local_view):
    nxg = nx.DiGraph()
    nxg.add_nodes_from(local_view.nodes())
    nxg.add_weighted_edges_from(local_view.edges(), weight="capacity")

    def run():
        value, _ = nx.maximum_flow(nxg, 0, 1, capacity="capacity")
        return value

    result = benchmark(run)
    assert result >= 0.0


def test_two_hop_equals_bounded_on_bench_graph(local_view):
    """Correctness guard for the kernels being compared."""
    for sink in range(1, 20):
        a = maxflow_two_hop(local_view, 0, sink).value
        b = bounded_ford_fulkerson(local_view, 0, sink, max_hops=2).value
        assert a == pytest.approx(b, rel=1e-9, abs=1e-6)
