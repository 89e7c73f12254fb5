"""Unit tests for the BarterCast node."""

import numpy as np
import pytest

from repro.core.adversary import Ignorer, SelfishLiar
from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastConfig, BarterCastNode
from repro.core.reputation import MB, ReputationMetric
from repro.obs.provenance import ProvenanceRecorder


class TestTransferAccounting:
    def test_upload_updates_history_and_graph(self):
        n = BarterCastNode("me")
        n.record_upload("p", 100.0, now=1.0)
        assert n.history.get("p").uploaded == 100.0
        assert n.graph.capacity("me", "p") == 100.0

    def test_download_updates_history_and_graph(self):
        n = BarterCastNode("me")
        n.record_download("p", 60.0, now=1.0)
        assert n.graph.capacity("p", "me") == 60.0

    def test_accumulation_reflected_in_graph(self):
        n = BarterCastNode("me")
        n.record_upload("p", 100.0, now=1.0)
        n.record_upload("p", 20.0, now=2.0)
        assert n.graph.capacity("me", "p") == 120.0

    def test_note_seen_self_ignored(self):
        n = BarterCastNode("me")
        n.note_seen("me", 5.0)  # no exception, no record
        assert len(n.history) == 0


class TestGossip:
    def test_honest_message_carries_history(self):
        n = BarterCastNode("me")
        n.record_download("p", 100.0, now=1.0)
        msg = n.create_message(now=2.0)
        assert msg is not None
        assert msg.sender == "me"
        parties = [r.counterparty for r in msg.records]
        assert parties == ["p"]
        assert n.messages_sent == 1

    def test_receive_message_builds_graph(self):
        n = BarterCastNode("me")
        msg = BarterCastMessage("r", 1.0, records=(HistoryRecord("c", 10.0, 3.0),))
        applied = n.receive_message(msg)
        assert applied == 1
        assert n.graph.capacity("r", "c") == 10.0
        assert n.messages_received == 1

    def test_own_message_rejected(self):
        # A message forged with the receiver's own id is dropped whole, as
        # a future-dated one is: counted, never raised on, nothing applied.
        n = BarterCastNode("me")
        n.record_upload("c", 5.0, now=0.5)
        msg = BarterCastMessage("me", 1.0, records=(HistoryRecord("c", 10.0, 3.0),) * 2)
        assert n.receive_message(msg, now=2.0) == 0
        assert n.messages_received == 1
        assert (n.shared.records_applied, n.shared.records_dropped) == (0, 2)
        assert n.shared.reporters() == set()
        assert list(n.graph.edges()) == [("me", "c", 5.0)]

    @pytest.mark.parametrize("provenance", [None, "on"])
    def test_hostile_records_are_dropped_and_counted(self, provenance):
        # Non-numeric totals and an unhashable counterparty used to raise
        # TypeError straight out of receive_message; on both ingest paths
        # they are malformed records like any other.
        recorder = ProvenanceRecorder() if provenance else None
        n = BarterCastNode("me", provenance=recorder)
        hostile = (
            HistoryRecord("c", None, 1.0),
            HistoryRecord("c", 1.0, "x"),
            HistoryRecord(["c"], 1.0, 1.0),
            HistoryRecord({"c": 1}, 1.0, 1.0),
            HistoryRecord("d", 10.0, 3.0),
        )
        applied = n.receive_message(BarterCastMessage("r", 1.0, records=hostile))
        assert applied == 1
        assert n.shared.records_applied == 1
        assert n.shared.records_dropped == 4
        assert n.graph.capacity("r", "d") == 10.0
        assert n.graph.capacity("r", "c") == 0.0

    def test_private_history_beats_gossip_about_self(self):
        n = BarterCastNode("me")
        n.record_upload("r", 50.0, now=1.0)
        # r claims me->r was enormous; the claim must not override the
        # node's own private history.
        msg = BarterCastMessage("r", 2.0, records=(HistoryRecord("me", 0.0, 1e15),))
        n.receive_message(msg)
        assert n.graph.capacity("me", "r") == 50.0


class TestReputation:
    def test_direct_reputation(self):
        n = BarterCastNode("me")
        n.record_download("p", 200 * MB, now=1.0)
        assert n.reputation_of("p") > 0.5

    def test_self_reputation_rejected(self):
        n = BarterCastNode("me")
        with pytest.raises(ValueError):
            n.reputation_of("me")

    def test_cache_invalidated_on_graph_change(self):
        n = BarterCastNode("me")
        n.record_download("p", 100 * MB, now=1.0)
        r1 = n.reputation_of("p")
        n.record_upload("p", 300 * MB, now=2.0)
        r2 = n.reputation_of("p")
        assert r2 < r1

    def test_cache_returns_same_value_without_changes(self):
        n = BarterCastNode("me")
        n.record_download("p", 100 * MB, now=1.0)
        assert n.reputation_of("p") == n.reputation_of("p")

    def test_reputations_of_batch(self):
        n = BarterCastNode("me")
        n.record_download("a", 100 * MB, now=1.0)
        n.record_upload("b", 100 * MB, now=1.0)
        reps = n.reputations_of(["a", "b", "me"])
        assert set(reps) == {"a", "b"}
        assert reps["a"] > 0 > reps["b"]

    def test_rank_by_reputation(self):
        n = BarterCastNode("me")
        n.record_download("good", 500 * MB, now=1.0)
        n.record_upload("bad", 500 * MB, now=1.0)
        n.graph.add_node("stranger")
        ranked = n.rank_by_reputation(["bad", "stranger", "good"])
        assert ranked == ["good", "stranger", "bad"]

    def test_rank_excludes_self(self):
        n = BarterCastNode("me")
        assert n.rank_by_reputation(["me"]) == []

    def test_known_peers_counts_graph_nodes(self):
        n = BarterCastNode("me")
        assert n.graph.num_nodes == 1  # self
        n.record_upload("p", 1.0, now=0.0)
        assert n.graph.num_nodes == 2


class TestBehaviors:
    def test_ignorer_sends_nothing(self):
        n = BarterCastNode("me", behavior=Ignorer())
        n.record_download("p", 100.0, now=1.0)
        assert n.create_message(now=2.0) is None
        assert n.messages_sent == 0

    def test_liar_fabricates_uploads(self):
        n = BarterCastNode("me", behavior=SelfishLiar(lie_upload_bytes=1e12))
        n.record_download("p", 100.0, now=1.0)
        msg = n.create_message(now=2.0)
        assert msg is not None
        assert all(r.uploaded == 1e12 and r.downloaded == 0.0 for r in msg.records)

    def test_liar_with_empty_history_sends_nothing(self):
        n = BarterCastNode("me", behavior=SelfishLiar())
        assert n.create_message(now=1.0) is None

    def test_config_controls_selection_size(self):
        cfg = BarterCastConfig(n_highest=1, n_recent=1)
        n = BarterCastNode("me", config=cfg)
        for i in range(5):
            n.record_download(f"p{i}", 100.0 * (i + 1), now=float(i))
        msg = n.create_message(now=10.0)
        # 1 top uploader (p4) + 1 most recent (p4, deduped) = 1 record.
        assert msg.num_records == 1
        assert msg.records[0].counterparty == "p4"


class TestConfig:
    @pytest.mark.parametrize("name", ["n_highest", "n_recent"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 10.0, -1, True, "10", None])
    def test_selection_size_must_be_a_non_negative_integer(self, name, value):
        # A float is no slice bound (TypeError at the first
        # create_message), and a negative Nh would select no top uploader.
        with pytest.raises(ValueError, match=name):
            BarterCastConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, 3, np.int64(4)])
    def test_integer_selection_sizes_build_nodes_that_gossip(self, value):
        cfg = BarterCastConfig(n_highest=value, n_recent=value)
        n = BarterCastNode("me", config=cfg)
        for i in range(5):
            n.record_download(f"p{i}", 100.0 * (i + 1), now=float(i))
        msg = n.create_message(now=10.0)
        assert (0 if msg is None else msg.num_records) == min(value, 5)
