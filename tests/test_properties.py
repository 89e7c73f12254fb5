"""Cross-module property-based tests (hypothesis).

These pin the protocol-level invariants the figures rely on:

* message selection never exceeds its windows, never duplicates, and
  reports exactly the sender's ledger;
* the subjective shared history converges to the same graph regardless
  of message arrival order (gossip is asynchronous and unordered);
* reputation is antisymmetric for symmetric observers sharing one graph;
* the whole gossip pipeline preserves the maxflow security bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.history import PrivateHistory
from repro.core.messages import (
    BarterCastMessage,
    HistoryRecord,
    admitted_totals,
    select_records,
)
from repro.core.node import BarterCastNode
from repro.core.reputation import ReputationMetric
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.transfer_graph import TransferGraph


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def ledgers(draw):
    """A private history with a handful of counterparties."""
    owner = "owner"
    history = PrivateHistory(owner)
    n = draw(st.integers(min_value=0, max_value=12))
    for i in range(n):
        up = draw(st.floats(min_value=0, max_value=1e9, allow_nan=False))
        down = draw(st.floats(min_value=0, max_value=1e9, allow_nan=False))
        t = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
        if up:
            history.record_upload(f"p{i}", up, t)
        if down:
            history.record_download(f"p{i}", down, t)
        if not up and not down:
            history.touch(f"p{i}", t)
    return history


@st.composite
def message_batches(draw):
    """Messages from several reporters with distinct timestamps."""
    n_msgs = draw(st.integers(min_value=1, max_value=8))
    messages = []
    for m in range(n_msgs):
        sender = f"r{draw(st.integers(min_value=0, max_value=4))}"
        n_recs = draw(st.integers(min_value=0, max_value=4))
        records = []
        for k in range(n_recs):
            counterparty = f"c{draw(st.integers(min_value=0, max_value=5))}"
            records.append(
                HistoryRecord(
                    counterparty=counterparty,
                    uploaded=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
                    downloaded=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
                )
            )
        # Distinct timestamps: supersede semantics are deterministic.
        messages.append(
            BarterCastMessage(sender=sender, created_at=float(m), records=tuple(records))
        )
    return messages


# ---------------------------------------------------------------------------
# Selection invariants
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(ledgers(), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_selection_invariants(history, nh, nr):
    records = select_records(history, nh, nr)
    names = [r.counterparty for r in records]
    # Bounded, duplicate-free, and faithful to the ledger.
    assert len(records) <= nh + nr
    assert len(names) == len(set(names))
    for record in records:
        totals = history.get(record.counterparty)
        assert record.uploaded == totals.uploaded
        assert record.downloaded == totals.downloaded
        assert admitted_totals(record) == (totals.uploaded, totals.downloaded)


@settings(max_examples=60, deadline=None)
@given(ledgers())
def test_top_uploaders_sorted_by_service(history):
    top = history.top_uploaders(10)
    values = [history.get(p).downloaded for p in top]
    assert values == sorted(values, reverse=True)
    assert all(v > 0 for v in values)


# ---------------------------------------------------------------------------
# Shared-history order independence
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(message_batches(), st.randoms(use_true_random=False))
def test_shared_history_order_independent(messages, rnd):
    def build(msgs):
        graph = TransferGraph()
        store = SubjectiveSharedHistory("owner", graph)
        for message in msgs:
            store.ingest(message)
        return {(a, b): w for a, b, w in graph.edges()}

    baseline = build(messages)
    shuffled = list(messages)
    rnd.shuffle(shuffled)
    assert build(shuffled) == baseline


# ---------------------------------------------------------------------------
# Reputation antisymmetry and the maxflow bound, end to end
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0, max_value=1e10, allow_nan=False),
    st.floats(min_value=0, max_value=1e10, allow_nan=False),
)
def test_two_party_antisymmetry(up, down):
    a = BarterCastNode("a")
    b = BarterCastNode("b")
    if up:
        a.record_upload("b", up, 1.0)
        b.record_download("a", up, 1.0)
    if down:
        a.record_download("b", down, 2.0)
        b.record_upload("a", down, 2.0)
    if up or down:
        assert a.reputation_of("b") == pytest.approx(-b.reputation_of("a"), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e9, allow_nan=False),   # real service v -> eva
    st.floats(min_value=1, max_value=1e15, allow_nan=False),  # liar's claimed upload
)
def test_gossip_pipeline_preserves_maxflow_bound(real_service, lie_size):
    """However big the lie, hearsay credit never exceeds real service."""
    evaluator = BarterCastNode("eva")
    evaluator.record_download("v", real_service, 1.0)
    lie = BarterCastMessage(
        sender="liar",
        created_at=2.0,
        records=(HistoryRecord("v", uploaded=lie_size, downloaded=0.0),),
    )
    evaluator.receive_message(lie)
    cap = evaluator.config.metric.scale(real_service)
    assert evaluator.reputation_of("liar") <= cap + 1e-12
