"""Stateful property test of the transfer graph.

Drives a :class:`TransferGraph` through random interleavings of its whole
mutation API (``add_node``, ``set_transfer``) while maintaining a naive
dict model, and checks after every step that the graph's capacities,
nodes, degrees and adjacency views agree with the model.  This is the
data structure every reputation in the system is computed from; silent
divergence here would corrupt everything above it.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.graph.transfer_graph import TransferGraph

NODES = ["a", "b", "c", "d", "e"]


class GraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = TransferGraph()
        self.model = {}  # (src, dst) -> bytes
        self.model_nodes = set()

    # ------------------------------------------------------------------
    @rule(node=st.sampled_from(NODES))
    def add_node(self, node):
        self.graph.add_node(node)
        self.model_nodes.add(node)

    @rule(
        src=st.sampled_from(NODES),
        dst=st.sampled_from(NODES),
        nbytes=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    def set_transfer(self, src, dst, nbytes):
        if src == dst:
            return
        self.graph.set_transfer(src, dst, nbytes)
        self.model_nodes.update((src, dst))
        if nbytes > 0:
            self.model[(src, dst)] = nbytes
        else:
            self.model.pop((src, dst), None)

    # ------------------------------------------------------------------
    @invariant()
    def capacities_match(self):
        for (src, dst), w in self.model.items():
            assert self.graph.capacity(src, dst) == w
        # And no phantom edges.
        assert self.graph.num_edges == len(self.model)

    @invariant()
    def nodes_match(self):
        assert set(self.graph.nodes()) == self.model_nodes

    @invariant()
    def degrees_match(self):
        for node in self.model_nodes:
            out_edges = {d: w for (s, d), w in self.model.items() if s == node}
            in_edges = {s: w for (s, d), w in self.model.items() if d == node}
            assert self.graph.out_degree(node) == len(out_edges)
            assert self.graph.in_degree(node) == len(in_edges)

    @invariant()
    def adjacency_views_consistent(self):
        for node in self.model_nodes:
            for dst, w in self.graph.successors(node).items():
                assert self.graph.predecessors(dst)[node] == w


TestGraphStateful = GraphMachine.TestCase
TestGraphStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
