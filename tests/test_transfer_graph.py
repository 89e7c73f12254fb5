"""Unit tests for the transfer graph."""

import math

import pytest

from repro.graph.columnar import ColumnarTransferGraph
from repro.graph.transfer_graph import TransferGraph


class TestMutation:
    def test_empty_graph(self):
        g = TransferGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.total_bytes == 0.0

    def test_add_transfer_creates_nodes_and_edge(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        assert g.has_node("a") and g.has_node("b")
        assert g.capacity("a", "b") == 100.0
        assert g.num_edges == 1

    def test_add_transfer_accumulates(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        g.add_transfer("a", "b", 50.0)
        assert g.capacity("a", "b") == 150.0
        assert g.num_edges == 1

    def test_directionality(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        assert g.capacity("b", "a") == 0.0

    def test_zero_transfer_creates_nodes_only(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 0.0)
        assert g.has_node("a") and g.has_node("b")
        assert g.num_edges == 0

    def test_negative_transfer_rejected(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            g.add_transfer("a", "b", -1.0)

    def test_self_transfer_rejected(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            g.add_transfer("a", "a", 5.0)

    def test_set_transfer_overwrites(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        g.set_transfer("a", "b", 30.0)
        assert g.capacity("a", "b") == 30.0

    def test_set_transfer_to_zero_removes_edge(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        g.set_transfer("a", "b", 0.0)
        assert g.num_edges == 0
        assert g.capacity("a", "b") == 0.0

    def test_set_transfer_negative_rejected(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            g.set_transfer("a", "b", -5.0)

    @pytest.mark.parametrize("graph_cls", [TransferGraph, ColumnarTransferGraph])
    @pytest.mark.parametrize("write", ["set_transfer", "add_transfer"])
    def test_nan_transfer_rejected_and_changes_nothing(self, graph_cls, write):
        """NaN used to slip past ``nbytes < 0``: ``set_transfer`` raised
        KeyError / TypeError on an absent edge and silently deleted a
        present one (``total_bytes`` turned NaN), ``add_transfer`` stored a
        NaN capacity.  It is rejected like a negative size, before any
        state is touched."""
        g = graph_cls()
        events = []
        g.subscribe(lambda s, d: events.append((s, d)))
        g.add_transfer("a", "b", 100.0)
        version, seen = g.version, list(events)
        for src, dst in (("a", "b"), ("b", "c")):  # present edge, absent edge
            with pytest.raises(ValueError):
                getattr(g, write)(src, dst, math.nan)
        assert g.capacity("a", "b") == 100.0
        assert g.total_bytes == 100.0
        assert g.num_edges == 1 and not g.has_node("c")
        assert g.version == version and events == seen

    def test_total_bytes_tracks_set_and_add(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 100.0)
        g.add_transfer("b", "c", 50.0)
        g.set_transfer("a", "b", 10.0)
        assert g.total_bytes == 60.0

    def test_add_node_idempotent(self):
        g = TransferGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.num_nodes == 1

    def test_remove_node_drops_incident_edges(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 10.0)
        g.add_transfer("b", "c", 20.0)
        g.add_transfer("c", "a", 5.0)
        g.remove_node("b")
        assert not g.has_node("b")
        assert g.num_edges == 1
        assert g.capacity("c", "a") == 5.0
        assert g.total_bytes == 5.0

    def test_remove_absent_node_noop(self):
        g = TransferGraph()
        g.remove_node("ghost")
        assert g.num_nodes == 0

    def test_version_bumps_on_mutation(self):
        g = TransferGraph()
        v0 = g.version
        g.add_transfer("a", "b", 1.0)
        v1 = g.version
        assert v1 > v0
        g.set_transfer("a", "b", 2.0)
        assert g.version > v1

    def test_noop_set_transfer_is_version_neutral(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 5.0)
        v = g.version
        g.set_transfer("a", "b", 5.0)
        assert g.version == v
        g.set_transfer("a", "c", 0.0)  # absent edge set to zero: no-op too
        v2 = g.version
        g.set_transfer("a", "c", 0.0)
        assert g.version == v2


@pytest.mark.parametrize("cls", [TransferGraph, ColumnarTransferGraph])
def test_total_bytes_of_an_emptied_graph_is_zero(cls):
    """Writes that add and subtract magnitudes 1e8 apart leave no rounding
    residue: the total is the sum of what is stored, not a running sum."""
    g = cls()
    g.set_transfer("b", "d", 8.071799988898166)
    g.add_transfer("e", "d", 4.850804124928859)
    g.add_transfer("b", "e", 842918309.9310977)
    g.set_transfer("d", "a", 955346426.605658)
    g.set_transfer("e", "a", 923960396.9125584)
    g.set_transfer("b", "d", 68716964.41668595)
    g.add_transfer("b", "e", 870549438.476054)
    g.add_transfer("e", "d", 8.217886558118838)
    g.set_transfer("e", "b", 830213717.0097903)
    for node in ("b", "d", "e", "a"):
        g.remove_node(node)
    assert g.num_edges == 0
    assert g.total_bytes == 0.0


class TestChangeEvents:
    def setup_method(self):
        self.events = []

    def listener(self, src, dst):
        self.events.append((src, dst))

    def test_add_transfer_notifies_endpoints(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        g.add_transfer("a", "b", 1.0)
        assert self.events == [("a", "b")]

    def test_set_transfer_notifies_only_on_change(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        g.set_transfer("a", "b", 3.0)
        g.set_transfer("a", "b", 3.0)  # no-op: silent
        g.set_transfer("a", "b", 4.0)
        g.set_transfer("a", "b", 0.0)  # removal: fires
        assert self.events == [("a", "b")] * 3

    def test_zero_byte_add_transfer_is_silent(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        g.add_transfer("a", "b", 0.0)
        assert self.events == []

    def test_remove_node_notifies_every_incident_edge(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 1.0)
        g.add_transfer("c", "a", 2.0)
        g.add_transfer("b", "c", 3.0)
        g.subscribe(self.listener)
        g.remove_node("a")
        assert sorted(self.events) == [("a", "b"), ("c", "a")]

    def test_unsubscribe_stops_events(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        g.add_transfer("a", "b", 1.0)
        g.unsubscribe(self.listener)
        g.add_transfer("a", "b", 1.0)
        assert self.events == [("a", "b")]
        g.unsubscribe(self.listener)  # absent: no-op

    def test_copy_does_not_inherit_listeners(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        h = g.copy()
        h.add_transfer("a", "b", 1.0)
        assert self.events == []


class TestQueries:
    @pytest.fixture
    def g(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 10.0)
        g.add_transfer("a", "c", 20.0)
        g.add_transfer("b", "c", 5.0)
        return g

    def test_successors(self, g):
        assert dict(g.successors("a")) == {"b": 10.0, "c": 20.0}

    def test_predecessors(self, g):
        assert dict(g.predecessors("c")) == {"a": 20.0, "b": 5.0}

    def test_unknown_node_neighbourhoods_empty(self, g):
        assert dict(g.successors("zzz")) == {}
        assert dict(g.predecessors("zzz")) == {}

    def test_degrees(self, g):
        assert g.out_degree("a") == 2
        assert g.in_degree("c") == 2
        assert g.in_degree("a") == 0

    def test_net_flow(self, g):
        assert g.net_flow("a") == 30.0
        assert g.net_flow("c") == -25.0
        assert g.net_flow("b") == -5.0

    def test_edges_iteration(self, g):
        edges = set(g.edges())
        assert edges == {("a", "b", 10.0), ("a", "c", 20.0), ("b", "c", 5.0)}

    def test_contains(self, g):
        assert "a" in g
        assert "zzz" not in g

    def test_nodes_iteration(self, g):
        assert set(g.nodes()) == {"a", "b", "c"}


class TestInterop:
    def test_copy_is_deep(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 10.0)
        h = g.copy()
        h.add_transfer("a", "b", 5.0)
        assert g.capacity("a", "b") == 10.0
        assert h.capacity("a", "b") == 15.0

    def test_dict_round_trip(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 10.0)
        g.add_node("lonely")
        h = TransferGraph.from_dict(g.to_dict())
        assert set(h.nodes()) == set(g.nodes())
        assert set(h.edges()) == set(g.edges())

    def test_from_edges(self):
        g = TransferGraph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
        assert g.num_edges == 2

    def test_to_networkx(self):
        g = TransferGraph()
        g.add_transfer("a", "b", 10.0)
        nxg = g.to_networkx()
        assert nxg.edges["a", "b"]["capacity"] == 10.0
