"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import strategies as st

from repro.graph.transfer_graph import TransferGraph
from repro.sim.rng import RngRegistry
from repro.traces.models import DAY
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams

MB = 1024.0**2


#: The CLI commands that build sweep tasks, at tiny seed 3 (``scalability``
#: is left out: it prints wall-clock columns).
TASK_COMMANDS = {
    "all": "all --profile tiny --fig4-peers 300 --export {out}",
    "faults": "faults --profile tiny --losses 0,0.3 --engine bartercast,ratio "
    "--top-k 2 --export {out}",
    "whitewash": "whitewash",
}


@pytest.fixture(scope="session")
def task_command_runs(tmp_path_factory):
    """Each of :data:`TASK_COMMANDS` run in process once per ``--jobs``
    level: ``{(name, jobs): (stdout, {exported file: bytes})}``, with the
    export directory written as ``OUT`` in stdout."""
    from repro import cli

    runs = {}
    for name, command in TASK_COMMANDS.items():
        for jobs in (1, 2):
            out = tmp_path_factory.mktemp(f"{name}-j{jobs}")
            argv = command.format(out=out).split() + ["--seed", "3", "--jobs", str(jobs)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            runs[name, jobs] = stdout.getvalue().replace(str(out), "OUT"), files
    return runs


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
    return graph_of(
        [("s", "a", 3.0), ("a", "t", 2.0), ("s", "b", 1.0), ("b", "t", 4.0), ("s", "t", 0.5)]
    )


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
    g = graph_of((i, j, w) for (i, j), w in edges)
    for node in range(n):
        g.add_node(node)
    return g


def graph_of(edges, cls=TransferGraph):
    """A graph whose edge ``(i, j)`` holds the sum of the weights
    ``edges`` lists for it (``(src, dst, bytes)`` triples, summed in
    order); a zero-weight edge registers its endpoints only."""
    totals = {}
    for src, dst, w in edges:
        totals[src, dst] = totals.get((src, dst), 0.0) + float(w)
    g = cls()
    for (src, dst), w in totals.items():
        g.set_transfer(src, dst, w)
    return g


def to_networkx(graph):
    """``graph`` as a ``networkx.DiGraph`` with ``capacity`` edge
    attributes, for cross-checking the maxflow kernels."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes())
    g.add_weighted_edges_from(graph.edges(), weight="capacity")
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
