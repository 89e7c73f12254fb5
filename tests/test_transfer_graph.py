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
        assert list(g.edges()) == []

    def test_set_transfer_creates_nodes_and_edge(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 100.0)
        assert g.has_node("a") and g.has_node("b")
        assert g.capacity("a", "b") == 100.0
        assert g.num_edges == 1

    def test_directionality(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 100.0)
        assert g.capacity("b", "a") == 0.0

    def test_zero_transfer_creates_nodes_only(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 0.0)
        assert g.has_node("a") and g.has_node("b")
        assert g.num_edges == 0

    def test_negative_transfer_rejected(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            g.set_transfer("a", "b", -1.0)

    def test_self_transfer_rejected(self):
        g = TransferGraph()
        with pytest.raises(ValueError):
            g.set_transfer("a", "a", 5.0)

    def test_set_transfer_overwrites(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 100.0)
        g.set_transfer("a", "b", 30.0)
        assert g.capacity("a", "b") == 30.0

    def test_set_transfer_to_zero_removes_edge(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 100.0)
        g.set_transfer("a", "b", 0.0)
        assert g.num_edges == 0
        assert g.capacity("a", "b") == 0.0

    def test_set_transfer_negative_rejected(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 5.0)
        with pytest.raises(ValueError):
            g.set_transfer("a", "b", -5.0)
        assert g.capacity("a", "b") == 5.0

    @pytest.mark.parametrize(
        "write, graph_cls",
        [
            ("set_transfer", TransferGraph),
            ("set_transfer", ColumnarTransferGraph),
            ("store", TransferGraph),
            ("store", ColumnarTransferGraph),
        ],
    )
    def test_nan_transfer_rejected_and_changes_nothing(self, write, graph_cls):
        """NaN used to slip past ``nbytes < 0``: ``set_transfer`` raised
        KeyError / TypeError on an absent edge and silently deleted a
        present one.  Both writes reject it like a negative size, before
        any state is touched."""
        g = graph_cls()
        events = []
        g.subscribe(lambda s, d: events.append((s, d)))
        g.set_transfer("a", "b", 100.0)
        seen = list(events)
        for src, dst in (("a", "b"), ("b", "c")):  # present edge, absent edge
            with pytest.raises(ValueError):
                getattr(g, write)(src, dst, math.nan)
        assert list(g.edges()) == [("a", "b", 100.0)]
        assert not g.has_node("c")
        assert events == seen

    def test_add_node_idempotent(self):
        g = TransferGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.num_nodes == 1


class TestChangeEvents:
    def setup_method(self):
        self.events = []

    def listener(self, src, dst):
        self.events.append((src, dst))

    @pytest.mark.parametrize("cls", [TransferGraph, ColumnarTransferGraph])
    def test_store_writes_like_set_transfer_and_notifies_no_one(self, cls):
        """``store`` is ``set_transfer`` minus the listeners: it reports
        whether the weight moved, and the caller acts on that itself."""
        g, ref = cls(), cls()
        g.subscribe(self.listener)
        writes = [("a", "b", 3.0), ("a", "b", 3.0), ("a", "b", 4.0), ("a", "b", 0.0), ("a", "c", 0.0)]
        assert [g.store(*w) for w in writes] == [True, False, True, True, False]
        for w in writes:
            ref.set_transfer(*w)
        assert self.events == []
        assert sorted(g.edges()) == sorted(ref.edges()) and set(g.nodes()) == set(ref.nodes())
        with pytest.raises(ValueError):
            g.store("a", "b", -1.0)
        with pytest.raises(ValueError):
            g.store("a", "a", 1.0)

    def test_set_transfer_notifies_only_on_change(self):
        g = TransferGraph()
        g.subscribe(self.listener)
        g.set_transfer("a", "b", 3.0)
        g.set_transfer("a", "b", 3.0)  # no-op: silent
        g.set_transfer("a", "b", 4.0)
        g.set_transfer("a", "b", 0.0)  # removal: fires
        g.set_transfer("a", "c", 0.0)  # absent edge set to zero: silent
        assert self.events == [("a", "b")] * 3


class TestQueries:
    @pytest.fixture
    def g(self):
        g = TransferGraph()
        g.set_transfer("a", "b", 10.0)
        g.set_transfer("a", "c", 20.0)
        g.set_transfer("b", "c", 5.0)
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

    def test_edges_iteration(self, g):
        edges = set(g.edges())
        assert edges == {("a", "b", 10.0), ("a", "c", 20.0), ("b", "c", 5.0)}

    def test_contains(self, g):
        assert g.has_node("a")
        assert not g.has_node("zzz")

    def test_nodes_iteration(self, g):
        assert set(g.nodes()) == {"a", "b", "c"}
