"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.graph.transfer_graph import TransferGraph
from repro.sim.rng import RngRegistry
from repro.traces.models import DAY
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams

MB = 1024.0**2


@pytest.fixture
def rng():
    """A deterministic RNG stream."""
    return RngRegistry(1234).stream("test")


@pytest.fixture
def diamond_graph():
    """A 4-node diamond: s -> {a, b} -> t plus a weak direct edge s -> t.

    Exact maxflow s->t = min(3,2) via a? No: edges s->a=3, a->t=2,
    s->b=1, b->t=4, s->t=0.5 giving maxflow = 2 + 1 + 0.5 = 3.5.
    """
    g = TransferGraph()
    g.add_transfer("s", "a", 3.0)
    g.add_transfer("a", "t", 2.0)
    g.add_transfer("s", "b", 1.0)
    g.add_transfer("b", "t", 4.0)
    g.add_transfer("s", "t", 0.5)
    return g


@pytest.fixture
def tiny_trace():
    """A very small but structurally complete community trace."""
    params = TraceParams(
        num_peers=8,
        num_swarms=2,
        duration=0.5 * DAY,
        min_file_size=20 * MB,
        max_file_size=60 * MB,
        target_pieces=32,
        swarms_per_peer_mean=1.5,
    )
    return SyntheticTraceGenerator(params, seed=99).generate()


@st.composite
def random_graphs(draw):
    """Small random weighted digraphs over integer nodes."""
    n = draw(st.integers(min_value=2, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(possible),
                st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            ),
            max_size=20,
        )
    )
    g = TransferGraph()
    for node in range(n):
        g.add_node(node)
    for (i, j), w in edges:
        g.add_transfer(i, j, w)
    return g


def snapshot(sim):
    """Everything a BitTorrent round writes, comparable with ``==``."""
    swarms = [
        (sid, swarm.availability.tolist(), swarm.completions, [
            {**vars(m), "bitfield": (m.bitfield.have.tobytes(), m.bitfield.num_have)}
            for m in swarm.members.values()
        ])
        for sid, swarm in sim.swarms.items()
    ]
    nodes = [
        (n.rep_cache_hits, n.rep_cache_misses, n.rep_cache_invalidations, n.counts(),
         list(n.graph.edges()))
        for n in sim.nodes.values()
    ]
    stats = [getattr(sim.stats, f).tobytes() for f in ("uploaded", "downloaded", "leech_time")]
    rng = sim._choke_rng.generator.bit_generator.state
    return sim.round_idx, swarms, nodes, stats, rng, sim.transfers, sim.bytes_moved
