"""Unit tests for BarterCast messages and record selection."""

import math

import numpy as np
import pytest

from repro.core.history import PrivateHistory
from repro.core.messages import (
    BarterCastMessage,
    HistoryRecord,
    select_records,
)
from repro.core.node import BarterCastNode
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.transfer_graph import TransferGraph
from tests import model


class TestHistoryRecord:
    def test_sane_record(self):
        assert HistoryRecord("p", 10.0, 5.0).is_sane()

    def test_negative_insane(self):
        assert not HistoryRecord("p", -1.0, 5.0).is_sane()
        assert not HistoryRecord("p", 1.0, -5.0).is_sane()

    def test_nan_insane(self):
        assert not HistoryRecord("p", math.nan, 0.0).is_sane()
        assert not HistoryRecord("p", 0.0, math.nan).is_sane()

    def test_inf_insane(self):
        assert not HistoryRecord("p", math.inf, 0.0).is_sane()

    def test_non_numeric_or_unhashable_is_insane_not_an_error(self):
        assert not HistoryRecord("p", None, 0.0).is_sane()
        assert not HistoryRecord("p", 0.0, "x").is_sane()
        assert not HistoryRecord("p", [1.0], 0.0).is_sane()
        assert not HistoryRecord("p", np.array([1.0, 2.0]), 0.0).is_sane()
        assert not HistoryRecord(["p"], 1.0, 0.0).is_sane()

    def test_frozen(self):
        rec = HistoryRecord("p", 1.0, 2.0)
        with pytest.raises(AttributeError):
            rec.uploaded = 5.0


class TestMessage:
    def test_records_normalized_to_tuple(self):
        msg = BarterCastMessage("s", 0.0, records=[HistoryRecord("p", 1.0, 2.0)])
        assert isinstance(msg.records, tuple)
        assert msg.num_records == 1

    # A receiver admits what ``model.sane_records`` admits: ingest applies
    # those records and counts the rest as dropped.
    def check_admission(self, msg):
        graph = TransferGraph()
        store = SubjectiveSharedHistory("o", graph)
        sane = model.sane_records(msg)
        assert store.ingest(msg, now=1.0) == store.records_applied == len(sane)
        assert store.records_dropped == len(msg.records) - len(sane)
        for r in sane:
            assert graph.capacity(msg.sender, r.counterparty) == r.uploaded
            assert graph.capacity(r.counterparty, msg.sender) == r.downloaded
        return sane

    def test_sane_records_filters_malformed(self):
        msg = BarterCastMessage(
            "s",
            0.0,
            records=(
                HistoryRecord("p", 1.0, 2.0),
                HistoryRecord("q", -1.0, 2.0),  # negative
                HistoryRecord("s", 1.0, 2.0),  # self-referential
            ),
        )
        sane = self.check_admission(msg)
        assert [r.counterparty for r in sane] == ["p"]

    def test_sane_records_drops_non_record_objects(self):
        msg = BarterCastMessage("s", 0.0, records=("garbage", 42))
        assert self.check_admission(msg) == []


class TestSelection:
    @pytest.fixture
    def history(self):
        h = PrivateHistory("me")
        h.record_download("top1", 100.0, now=1.0)
        h.record_download("top2", 90.0, now=2.0)
        h.record_download("top3", 80.0, now=3.0)
        h.record_upload("recent1", 5.0, now=50.0)
        h.touch("recent2", 60.0)
        return h

    def test_union_of_top_and_recent(self, history):
        records = select_records(history, n_highest=2, n_recent=2)
        names = [r.counterparty for r in records]
        assert names[:2] == ["top1", "top2"]  # top-uploaders first
        assert "recent2" in names and "recent1" in names

    def test_deduplication(self, history):
        # top3 is also among the most recent transfer partners; with large
        # windows every peer appears exactly once.
        records = select_records(history, n_highest=10, n_recent=10)
        names = [r.counterparty for r in records]
        assert len(names) == len(set(names))
        assert set(names) == {"top1", "top2", "top3", "recent1", "recent2"}

    def test_record_totals_match_history(self, history):
        records = {r.counterparty: r for r in select_records(history, 10, 10)}
        assert records["top1"].downloaded == 100.0
        assert records["top1"].uploaded == 0.0
        assert records["recent1"].uploaded == 5.0

    def test_zero_windows_empty(self, history):
        assert select_records(history, 0, 0) == []

    def test_empty_history_empty(self):
        assert select_records(PrivateHistory("me"), 10, 10) == []

    def test_make_message(self):
        """An honest node's message is the selection over its own ledger,
        sent under its id at the send time."""
        node = BarterCastNode("me")
        node.record_download("top1", 100.0, now=1.0)
        node.record_upload("recent1", 5.0, now=50.0)
        node.note_seen("recent2", 60.0)
        msg = node.create_message(123.0)
        assert msg.sender == "me"
        assert msg.created_at == 123.0
        assert list(msg.records) == select_records(node.history, 10, 10)
        assert msg.num_records == 3
