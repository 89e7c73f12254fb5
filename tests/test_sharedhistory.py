"""Unit tests for the subjective shared history."""

import pytest

from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.transfer_graph import TransferGraph


def msg(sender, t, *records):
    return BarterCastMessage(sender=sender, created_at=t, records=tuple(records))


@pytest.fixture
def store():
    graph = TransferGraph()
    return SubjectiveSharedHistory("me", graph), graph


class TestIngestion:
    def test_record_creates_both_edges(self, store):
        shared, graph = store
        shared.ingest(msg("r", 1.0, HistoryRecord("c", uploaded=10.0, downloaded=4.0)))
        assert graph.capacity("r", "c") == 10.0
        assert graph.capacity("c", "r") == 4.0

    def test_own_message_rejected(self, store):
        # A node never gossips to itself: such a message is forged and is
        # dropped whole, every record counted, without raising.
        shared, graph = store
        assert shared.ingest(msg("me", 1.0, HistoryRecord("c", 10.0, 4.0))) == 0
        assert shared.messages_seen == 1
        assert (shared.records_applied, shared.records_dropped) == (0, 1)
        assert shared.reporters() == set() and list(graph.edges()) == []

    def test_records_about_owner_ignored(self, store):
        shared, graph = store
        applied = shared.ingest(msg("r", 1.0, HistoryRecord("me", 100.0, 0.0)))
        assert applied == 0
        assert graph.capacity("r", "me") == 0.0
        assert graph.capacity("me", "r") == 0.0

    def test_malformed_records_dropped(self, store):
        shared, graph = store
        applied = shared.ingest(msg("r", 1.0, HistoryRecord("c", -5.0, 0.0)))
        assert applied == 0
        assert shared.records_dropped >= 1

    def test_newer_record_supersedes(self, store):
        shared, graph = store
        shared.ingest(msg("r", 1.0, HistoryRecord("c", 10.0, 0.0)))
        shared.ingest(msg("r", 2.0, HistoryRecord("c", 25.0, 3.0)))
        assert graph.capacity("r", "c") == 25.0
        assert graph.capacity("c", "r") == 3.0

    def test_stale_record_dropped(self, store):
        shared, graph = store
        shared.ingest(msg("r", 5.0, HistoryRecord("c", 25.0, 0.0)))
        shared.ingest(msg("r", 1.0, HistoryRecord("c", 10.0, 0.0)))
        assert graph.capacity("r", "c") == 25.0

    def test_duplicate_record_not_counted_as_applied(self, store):
        shared, _ = store
        shared.ingest(msg("r", 1.0, HistoryRecord("c", 10.0, 0.0)))
        applied = shared.ingest(msg("r", 2.0, HistoryRecord("c", 10.0, 0.0)))
        assert applied == 0

    def test_messages_seen_counter(self, store):
        shared, _ = store
        shared.ingest(msg("r", 1.0))
        shared.ingest(msg("q", 2.0))
        assert shared.messages_seen == 2


class TestDeliveryIdempotency:
    """An unreliable channel redelivers and reorders messages; the view
    must be independent of arrival order and copy count."""

    def test_redelivered_message_is_noop(self, store):
        shared, graph = store
        m = msg("r", 1.0, HistoryRecord("c", 10.0, 4.0))
        shared.ingest(m)
        dropped_before = shared.records_dropped
        applied = shared.ingest(msg("r", 1.0, HistoryRecord("c", 10.0, 4.0)))
        assert applied == 0
        assert shared.records_dropped == dropped_before + 1
        assert graph.capacity("r", "c") == 10.0
        assert graph.capacity("c", "r") == 4.0

    def test_equal_timestamp_tie_keeps_max(self, store):
        shared, graph = store
        shared.ingest(msg("r", 1.0, HistoryRecord("c", 25.0, 0.0)))
        # Same reported_at, smaller value (e.g. a stale duplicate that
        # raced a fresher same-tick claim): must not clobber the max.
        applied = shared.ingest(msg("r", 1.0, HistoryRecord("c", 10.0, 0.0)))
        assert applied == 0
        assert graph.capacity("r", "c") == 25.0

    def test_equal_timestamp_order_independent(self):
        lo = HistoryRecord("c", 10.0, 0.0)
        hi = HistoryRecord("c", 25.0, 0.0)
        views = []
        for first, second in ((lo, hi), (hi, lo)):
            graph = TransferGraph()
            shared = SubjectiveSharedHistory("me", graph)
            shared.ingest(msg("r", 1.0, first))
            shared.ingest(msg("r", 1.0, second))
            views.append(graph.capacity("r", "c"))
        assert views[0] == views[1] == 25.0

    def test_reporters_lists_live_claimants(self, store):
        shared, _ = store
        assert shared.reporters() == set()
        shared.ingest(msg("a", 1.0, HistoryRecord("b", 10.0, 0.0)))
        shared.ingest(msg("b", 1.0, HistoryRecord("a", 0.0, 4.0)))
        assert shared.reporters() == {"a", "b"}
        shared.forget_reporter("a")
        assert shared.reporters() == {"b"}


class TestClaimArbitration:
    def test_max_over_reporters(self, store):
        shared, graph = store
        # a claims it uploaded 10 to b; b claims it downloaded 30 from a.
        shared.ingest(msg("a", 1.0, HistoryRecord("b", uploaded=10.0, downloaded=0.0)))
        shared.ingest(msg("b", 1.0, HistoryRecord("a", uploaded=0.0, downloaded=30.0)))
        assert graph.capacity("a", "b") == 30.0

    def test_reporter_lowering_claim_keeps_other(self, store):
        shared, graph = store
        shared.ingest(msg("a", 1.0, HistoryRecord("b", uploaded=50.0, downloaded=0.0)))
        shared.ingest(msg("b", 1.0, HistoryRecord("a", uploaded=0.0, downloaded=30.0)))
        # a revises downwards; b's independent claim remains the max.
        shared.ingest(msg("a", 2.0, HistoryRecord("b", uploaded=5.0, downloaded=0.0)))
        assert graph.capacity("a", "b") == 30.0

    def test_claim_of(self, store):
        shared, _ = store
        shared.ingest(msg("a", 1.0, HistoryRecord("b", 10.0, 2.0)))
        assert shared.claim_of("a", "a", "b") == 10.0
        assert shared.claim_of("a", "b", "a") == 2.0
        assert shared.claim_of("zzz", "a", "b") is None
        assert shared.claim_of("a", "x", "y") is None

    def test_claimed_reads_graph(self, store):
        shared, _ = store
        shared.ingest(msg("a", 1.0, HistoryRecord("b", 7.0, 0.0)))
        assert shared.claimed("a", "b") == 7.0
        assert shared.claimed("b", "a") == 0.0


class TestForget:
    def test_forget_reporter_removes_claims(self, store):
        shared, graph = store
        shared.ingest(msg("a", 1.0, HistoryRecord("b", 10.0, 0.0)))
        changed = shared.forget_reporter("a")
        assert changed >= 1
        assert graph.capacity("a", "b") == 0.0

    def test_forget_keeps_other_reporters(self, store):
        shared, graph = store
        shared.ingest(msg("a", 1.0, HistoryRecord("b", 10.0, 0.0)))
        shared.ingest(msg("b", 1.0, HistoryRecord("a", 0.0, 4.0)))
        shared.forget_reporter("a")
        assert graph.capacity("a", "b") == 4.0

    def test_forget_unknown_reporter_noop(self, store):
        shared, _ = store
        assert shared.forget_reporter("ghost") == 0
