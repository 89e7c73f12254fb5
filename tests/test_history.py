"""Unit tests for the private history ledger."""

import pytest

from repro.core.history import PrivateHistory, TransferTotals


class TestRecording:
    def test_empty_ledger(self):
        h = PrivateHistory("me")
        assert len(h) == 0
        assert list(h.peers()) == []

    def test_upload_accumulates(self):
        h = PrivateHistory("me")
        h.record_upload("p", 100.0, now=1.0)
        h.record_upload("p", 50.0, now=2.0)
        rec = h.get("p")
        assert rec.uploaded == 150.0
        assert rec.downloaded == 0.0
        assert rec.last_seen == 2.0

    def test_download_accumulates(self):
        h = PrivateHistory("me")
        assert h.record_download("p", 70.0, now=3.0) == 70.0
        assert h.record_download("p", 30.0, now=4.0) == 100.0
        assert h.get("p").downloaded == 100.0
        assert h.get("p").uploaded == 0.0

    def test_last_seen_never_goes_backwards(self):
        h = PrivateHistory("me")
        h.record_upload("p", 1.0, now=10.0)
        h.record_upload("p", 1.0, now=5.0)
        assert h.get("p").last_seen == 10.0

    def test_touch_updates_last_seen_only(self):
        h = PrivateHistory("me")
        h.touch("p", 9.0)
        rec = h.get("p")
        assert rec.last_seen == 9.0
        assert rec.uploaded == 0.0 and rec.downloaded == 0.0

    def test_self_interaction_rejected(self):
        h = PrivateHistory("me")
        with pytest.raises(ValueError):
            h.record_upload("me", 1.0, now=0.0)
        with pytest.raises(ValueError):
            h.record_download("me", 1.0, now=0.0)
        with pytest.raises(ValueError):
            h.touch("me", 0.0)

    def test_negative_size_rejected(self):
        h = PrivateHistory("me")
        with pytest.raises(ValueError):
            h.record_upload("p", -1.0, now=0.0)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_size_rejected(self, nbytes):
        # ``nan < 0`` is false: a NaN that got through would poison the
        # totals, the selection keys and the wire record for good.
        h = PrivateHistory("me")
        h.record_download("p", 5.0, now=1.0)
        for record in (h.record_upload, h.record_download):
            with pytest.raises(ValueError):
                record("p", nbytes, now=2.0)
        assert h.get("p").uploaded == 0.0
        assert h.get("p").downloaded == 5.0 and h.get("p").last_seen == 1.0
        assert h.top_uploaders(10) == ["p"]

    def test_get_returns_copy(self):
        h = PrivateHistory("me")
        h.record_upload("p", 10.0, now=0.0)
        rec = h.get("p")
        rec.uploaded = 9999.0
        assert h.get("p").uploaded == 10.0

    def test_get_unknown_peer_zeros(self):
        h = PrivateHistory("me")
        rec = h.get("stranger")
        assert rec.uploaded == 0.0 and rec.downloaded == 0.0

    def test_contains(self):
        h = PrivateHistory("me")
        h.record_upload("p", 1.0, now=0.0)
        assert list(h.peers()) == ["p"]
        assert h.totals("p").uploaded == 1.0
        with pytest.raises(KeyError):
            h.totals("q")


class TestSelections:
    @pytest.fixture
    def ledger(self):
        h = PrivateHistory("me")
        # downloads (peer uploads TO me): c > a > b
        h.record_download("a", 50.0, now=1.0)
        h.record_download("b", 10.0, now=2.0)
        h.record_download("c", 90.0, now=3.0)
        h.record_upload("d", 40.0, now=4.0)  # d uploaded nothing to me
        return h

    def test_top_uploaders_order(self, ledger):
        assert ledger.top_uploaders(2) == ["c", "a"]

    def test_top_uploaders_excludes_zero_upload(self, ledger):
        assert "d" not in ledger.top_uploaders(10)

    def test_top_uploaders_zero_n(self, ledger):
        assert ledger.top_uploaders(0) == []

    def test_most_recent_order(self, ledger):
        assert ledger.most_recent(2) == ["d", "c"]

    def test_most_recent_includes_non_uploaders(self, ledger):
        assert ledger.most_recent(1) == ["d"]

    def test_most_recent_zero_n(self, ledger):
        assert ledger.most_recent(0) == []

    def test_selection_deterministic_on_ties(self):
        h1 = PrivateHistory("me")
        h2 = PrivateHistory("me")
        for h in (h1, h2):
            for p in ("x", "y", "z"):
                h.record_download(p, 10.0, now=1.0)
        assert h1.top_uploaders(2) == h2.top_uploaders(2)
        assert h1.most_recent(2) == h2.most_recent(2)


class TestTransferTotals:
    def test_defaults(self):
        t = TransferTotals()
        assert t.uploaded == 0.0 and t.downloaded == 0.0 and t.last_seen == 0.0
