"""System ≡ model on the gossip path.

The private history's selections and the wire records built from them,
and the shared history's ingest, forget and wipe, against the naive model
in ``tests/model.py``: full stable sorts, and a store of one record per
(reporter, counterparty) whose edges are found by scan.  Floats compare by
``==``.  The BuddyCast view merge and the forged-timestamp cases are in
``tests/test_model.py``.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adversary import HonestBehavior, SelfishLiar
from repro.core.history import PrivateHistory
from repro.core.messages import (
    BarterCastMessage,
    HistoryRecord,
    admitted_totals,
    select_records,
)
from repro.core.node import BarterCastNode
from repro.core.sharedhistory import SubjectiveSharedHistory
from repro.graph.columnar import ColumnarTransferGraph
from repro.graph.transfer_graph import TransferGraph
from repro.obs.dissemination import DisseminationRecorder
from repro.obs.provenance import ProvenanceRecorder
from tests import model

# --- Private history, selection, wire records -------------------------------


class Twin:
    """Distinct peers with one ``repr``: only ledger order separates them."""

    def __repr__(self):
        return "twin"


TWINS = (Twin(), Twin())
peers = st.sampled_from([1, 2, 3, "a", "b", (1, 2), *TWINS])
# Few distinct values, so equal ``last_seen`` / ``downloaded`` ties are common.
times = st.sampled_from([-5.0, 0.0, 1.0, 2.0, 2.0, 7.5, 100.0, math.inf])
sizes = st.sampled_from([0, 0.0, 1, 2.0, 5.0])
windows = st.sampled_from([-1, 0, 1, 2, 10, 50])
history_ops = st.one_of(
    st.tuples(st.just("up"), peers, sizes, times),
    st.tuples(st.just("down"), peers, sizes, times),
    st.tuples(st.just("touch"), peers, times),
    st.tuples(st.just("select"), windows, windows),
)


def replay(h, kind, args):
    """Applies one ledger op; a ``select`` is the caller's."""
    if kind == "up":
        h.record_upload(*args)
    elif kind == "down":
        h.record_download(*args)
    elif kind == "touch":
        h.touch(*args)


# Equal keys: only ledger order separates the twins.
@example([("touch", TWINS[0], 1.0), ("touch", TWINS[1], 1.0)])
@settings(max_examples=200, deadline=None)
@given(st.lists(history_ops, max_size=40))
def test_incremental_selections_equal_full_sort(ops):
    node, ref, sent = BarterCastNode("me"), model.History(), {}
    h = node.history
    for kind, *args in ops + [("select", 50, 50)]:
        replay(h, kind, args)
        if kind == "up":
            ref.record(args[0], up=args[1], now=args[2])
        elif kind == "down":
            ref.record(args[0], down=args[1], now=args[2])
        elif kind == "touch":
            ref.record(args[0], now=args[1])
        else:
            n_highest, n_recent = args
            top, recent = h.top_uploaders(n_highest), h.most_recent(n_recent)
            assert (top, recent) == (ref.top_uploaders(n_highest), ref.most_recent(n_recent))
            top.clear()  # the caller owns both lists (select_records extends one)
            recent.clear()
            records = select_records(h, n_highest, n_recent)
            got = [(r.counterparty, r.uploaded, r.downloaded) for r in records]
            assert got == ref.select(n_highest, n_recent)
            for r in records:
                # One immutable record per counterparty, reused until its
                # totals move; a record already sent still says what it said.
                old, said = sent.get(r.counterparty, (None, None))
                assert (r is old) == (said == (r.uploaded, r.downloaded))
                assert old is None or (old.uploaded, old.downloaded) == said
                sent[r.counterparty] = (r, (r.uploaded, r.downloaded))
            # A lie names the node's own selection in fresh records; the
            # honest ones it read stay as sent (checked at the next select).
            lie = SelfishLiar(7.0).make_message(node, 0.0)
            lied = [(r.counterparty, r.uploaded, r.downloaded) for r in lie.records] if lie else []
            assert lied == [(p, 7.0, 0.0) for p, *_ in ref.select(10, 10)]


def test_selection_results_are_callers_own_lists():
    h = PrivateHistory("me")
    h.record_download("a", 5.0, now=1.0)
    h.record_download("b", 3.0, now=2.0)
    h.top_uploaders(10).clear()
    h.most_recent(10).clear()
    assert h.top_uploaders(10) == ["a", "b"]
    assert h.most_recent(10) == ["b", "a"]


def by_peer(records):
    return {r.counterparty: r for r in records}


def test_wire_record_reused_until_totals_change():
    h = PrivateHistory("me")
    h.record_upload("a", 10.0, now=1.0)
    h.record_download("b", 4.0, now=2.0)
    first = by_peer(select_records(h, 10, 10))

    h.touch("a", 50.0)  # recency moves, totals do not
    again = by_peer(select_records(h, 10, 10))
    assert again["a"] is first["a"] and again["b"] is first["b"]

    h.record_upload("a", 1.0, now=60.0)
    h.record_download("b", 0.0, now=60.0)  # a zero-byte transfer changes nothing
    after = by_peer(select_records(h, 10, 10))
    assert after["a"] is not first["a"]
    assert (after["a"].uploaded, after["a"].downloaded) == (11.0, 0.0)
    assert after["b"] is first["b"]
    # The record already on the wire still says what was true when it was sent.
    assert (first["a"].uploaded, first["a"].downloaded) == (10.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(history_ops, max_size=30))
def test_wire_records_always_match_the_ledger(ops):
    h = PrivateHistory("me")
    for kind, *args in ops:
        replay(h, kind, args)
        if kind == "select":
            for record in select_records(h, *args):
                totals = h.get(record.counterparty)
                assert (record.uploaded, record.downloaded) == (totals.uploaded, totals.downloaded)


def test_selfish_liar_rewrites_instead_of_mutating_reused_records():
    node = BarterCastNode("liar", behavior=SelfishLiar())
    node.record_upload("a", 10.0, now=1.0)
    node.record_download("b", 4.0, now=2.0)
    honest = by_peer(select_records(node.history, 10, 10))

    lie = node.create_message(now=3.0)
    assert {r.counterparty for r in lie.records} == set(honest)
    for record in lie.records:
        assert record is not honest[record.counterparty]
        assert (record.uploaded, record.downloaded) == (SelfishLiar().lie_upload_bytes, 0.0)

    # The honest records the lie was derived from are untouched and still served.
    node.behavior = HonestBehavior()
    truth = by_peer(node.create_message(now=4.0).records)
    assert truth["a"] is honest["a"] and truth["b"] is honest["b"]
    assert (truth["a"].uploaded, truth["b"].downloaded) == (10.0, 4.0)


# --- Shared history: ingest, forget, wipe, hostile input ---------------------

#: Every store example runs on each graph class that ships.
GRAPHS = {"dict": TransferGraph, "columnar": ColumnarTransferGraph}
OWNER, REPORTERS = "me", ["r0", "r1"]
PARTIES = REPORTERS + ["c0", OWNER]
# Few peers, totals and timestamps, so one (reporter, counterparty) pair is
# hit again and again: stale, equal-timestamp, confirming and superseding
# deliveries, records about the owner and about the sender itself.
totals = st.sampled_from([0.0, 1.0, 5.0, 5.0, 9.0, 7])
parties = st.sampled_from(["c0", "c0", "r0", "r1", OWNER])
good_record = st.builds(HistoryRecord, parties, totals, totals)
# The same record objects again and again, as a sender re-sends its cached
# wire records until a total moves.
POOL = tuple(
    HistoryRecord(c, up, down)
    for c in ("c0", "r0", "r1", OWNER)
    for up, down in ((1.0, 5.0), (5.0, 5.0), (9.0, 0.0))
)
pooled_record = st.sampled_from(POOL)
any_total = st.one_of(totals, st.sampled_from([-1.0, math.nan, math.inf, None, "x", [1.0], 10**400]))
any_party = st.sampled_from(["c0", None, ["unhashable"], {"un": "hashable"}])
hostile_record = st.one_of(
    st.builds(HistoryRecord, any_party, any_total, any_total),
    st.sampled_from([None, "junk", ("c0", 1.0, 2.0)]),
)
timestamps = st.sampled_from([1.0, 2.0, 2.0, 3.0])
# Whatever a peer puts in ``created_at``: only a finite real is a timestamp.
hostile_created_at = st.one_of(
    st.sampled_from([None, "x", "7", [1], (2.0,), {}, math.nan, math.inf, -math.inf, 10**400]),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
)


def messages(created_at):
    # Now and then a message forged in the owner's name: dropped whole.
    return st.builds(
        BarterCastMessage,
        sender=st.sampled_from(REPORTERS * 3 + [OWNER]),
        created_at=created_at,
        records=st.lists(st.one_of(good_record, pooled_record, pooled_record, hostile_record), max_size=5),
        msg_id=st.sampled_from([None, ("r0", 1), ("r1", 7)]),
    )


# A receipt at 2.5 dates 3.0, and 1e9 at any receipt, in the future.
message = messages(st.one_of(timestamps, timestamps, st.just(1e9), hostile_created_at))
delivery = st.tuples(message, st.sampled_from([None, 2.5, 4.0, 9.5]))
# "c0" never reports anything: forgetting it is the no-op case.
step = st.one_of(
    delivery,
    delivery,
    delivery,
    st.tuples(st.just("forget"), st.sampled_from(REPORTERS + ["c0"])),
    st.tuples(st.just("wipe"), st.none()),
)


def state(store, graph):
    """Everything a store shows, lineage apart (a provenance-off one has none)."""
    edges = list(store.known_edges())
    assert len(edges) == len(set(edges))
    claims = {(r, e): store.claim_of(r, *e) for e in edges for r in PARTIES}
    counters = (store.messages_seen, store.records_applied, store.records_dropped)
    graph_state = list(graph.edges()), list(graph.nodes())
    return counters, set(edges), store.reporters(), claims, graph_state


def lineage(store):
    return {edge: store.lineage_of(*edge) for edge in store.known_edges()}


# One record re-sent newer, redelivered and stale: the receiver knows it by
# identity and settles only its timestamp and lineage.
@example([(BarterCastMessage("r0", t, (POOL[0],), msg_id=("r0", t)), 4.0) for t in (1.0, 2.0, 2.0, 1.0)])
# An equal-timestamp tie mixes two records' totals; the first record,
# re-sent later, must be read again, not recognised by identity.
@example([(BarterCastMessage("r0", t, (POOL[i],)), None) for t, i in ((2.0, 0), (2.0, 1), (3.0, 0))])
@settings(max_examples=200, deadline=None)
@given(st.lists(step, max_size=16))
def test_one_loop_ingest_equals_layered_path(steps):
    """Provenance on and off, over both graph classes, against the model's
    scanned store: the return values, everything the store shows, its
    lineage and the recorder's five counts."""
    ons = [BarterCastNode(OWNER, provenance=ProvenanceRecorder(), graph_backend=b) for b in GRAPHS]
    offs = [BarterCastNode(OWNER, graph_backend=b) for b in GRAPHS]
    ref = model.Store(OWNER, TransferGraph())
    ref.graph.add_node(OWNER)
    for kind, arg in steps:
        if kind == "forget":
            want, got = ref.forget(arg), [n.shared.forget_reporter(arg) for n in ons + offs]
        elif kind == "wipe":
            want, got = ref.wipe(), [n.wipe_shared_history() for n in ons + offs]
        else:  # whatever the message holds, receiving it never raises
            want, got = ref.ingest(kind, arg), [n.receive_message(kind, arg) for n in ons + offs]
        assert got == [want] * len(got)
        for node in ons + offs:
            assert state(node.shared, node.graph) == state(ref, ref.graph)
        for node in ons:
            assert lineage(node.shared) == lineage(ref) and node.provenance.summary() == ref.counts
    assert not any(edge for node in offs for edge in lineage(node.shared).values())


@settings(max_examples=100, deadline=None)
@given(st.lists(delivery, max_size=8), st.lists(delivery, max_size=8), st.booleans())
def test_wipe_then_replay_equals_fresh_store(before, after, provenance):
    def make():
        return BarterCastNode(OWNER, provenance=ProvenanceRecorder() if provenance else None)

    wiped, fresh = make(), make()
    for msg, received_at in before:
        wiped.receive_message(msg, now=received_at)
    store = wiped.shared
    claims = sum(store.claim_of(r, *edge) is not None for edge in store.known_edges() for r in PARTIES)
    assert wiped.wipe_shared_history() == claims
    assert store.reporters() == set() and list(store.known_edges()) == []
    assert list(wiped.graph.edges()) == []
    if provenance:
        assert wiped.provenance.claims_forgotten == claims
    for msg, received_at in after:
        assert wiped.receive_message(msg, now=received_at) == fresh.receive_message(msg, now=received_at)
    # Counters and node registration (hence edge order) remember the first
    # life; the view, its claims and their lineage do not.
    (_, *view, (edges, _)), (_, *fresh_view, (fresh_edges, _)) = (
        state(node.shared, node.graph) for node in (wiped, fresh)
    )
    assert view == fresh_view and set(edges) == set(fresh_edges)
    assert lineage(store) == lineage(fresh.shared)


@settings(max_examples=100, deadline=None)
@given(st.lists(delivery, max_size=4), messages(hostile_created_at),
       st.sampled_from([None, 4.0, 9.5]), st.booleans())
def test_hostile_created_at_drops_the_message(history, forged, received_at, provenance):
    node = BarterCastNode(OWNER, provenance=ProvenanceRecorder() if provenance else None)
    for msg, at in history:
        node.receive_message(msg, now=at)
    store = node.shared
    (seen, applied, dropped), *before = state(store, node.graph)
    lineages, summary = lineage(store), store._prov.summary()
    assert node.receive_message(forged, now=received_at) == 0  # never raises
    counters, *after = state(store, node.graph)
    assert counters == (seen + 1, applied, dropped + len(forged.records))
    assert after == before
    assert lineage(store) == lineages and store._prov.summary() == summary


# Whatever a peer can put in a total or a counterparty: the reals the rule
# admits at its edges (``-0.0``, ``True``, numpy real scalars) and what it
# must not (NaN, infinities, an int too large for a float, numpy arrays
# and booleans, strings, ``None``).
wire_total = st.one_of(
    st.floats(),
    st.integers(-3, 2**1100),
    st.sampled_from([
        -0.0, True, False, 10**400, np.float64(2.5), np.float32(-1.0), np.int64(7),
        np.float16(np.inf), np.float64(np.nan), np.bool_(True), np.array(1.0),
        np.array([1.0]), np.array([1.0, 2.0]), "1.5", None, [1.0],
    ]),
)
wire_party = st.sampled_from(["c0", 3, 3.0, OWNER, "r0", None, ["unhashable"], np.array([1])])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(HistoryRecord, wire_party, wire_total, wire_total), min_size=1, max_size=6))
def test_admission_equals_model(records):
    """Ingest's applied / dropped split, the dissemination recorder's
    ``_sane`` and ``admitted_totals`` each equal ``model.sane_records``
    on hostile values; none of them raises."""
    recorder = DisseminationRecorder()
    for i, record in enumerate(records):
        message = BarterCastMessage("r0", 1.0, (record,), msg_id=("r0", i))
        sane = model.sane_records(message)
        store = SubjectiveSharedHistory(OWNER, TransferGraph())
        applied = store.ingest(message, now=1.0)
        assert (applied, store.records_dropped) == (
            (1, 0) if sane and record.counterparty != OWNER else (0, 1)
        )
        recorder.record_send(message, OWNER, 1.0)
        assert recorder._sane(i) == sane
        totals = admitted_totals(record)
        if model.is_total(record.uploaded) and model.is_total(record.downloaded):
            assert totals == (model.finite(record.uploaded), model.finite(record.downloaded))
        else:
            assert totals is None