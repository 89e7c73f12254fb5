"""Equivalence tests for the incremental gossip hot path.

Each optimised piece is checked against a reference that is the code it
replaced, kept here verbatim: the full stable sorts of
``PrivateHistory.top_uploaders`` / ``most_recent``, BuddyCast's sequential
``_insert``, and the layered ``_apply_record`` / ``_update_claim`` ingest
path that the one-loop ``SubjectiveSharedHistory.ingest`` absorbed.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary import HonestBehavior, SelfishLiar
from repro.core.history import PrivateHistory
from repro.core.messages import BarterCastMessage, HistoryRecord, select_records
from repro.core.node import BarterCastNode
from repro.core.sharedhistory import SubjectiveSharedHistory, _Claim
from repro.graph.transfer_graph import TransferGraph
from repro.obs.provenance import ProvenanceRecorder
from repro.pss.buddycast import BuddyCastPSS
from repro.sim.rng import RngRegistry


# ---------------------------------------------------------------------------
# (a) incremental selections == full stable sort
# ---------------------------------------------------------------------------

def ref_top_uploaders(history, n):
    if n <= 0:
        return []
    ranked = sorted(history.items(), key=lambda kv: (-kv[1].downloaded, repr(kv[0])))
    return [peer for peer, rec in ranked[:n] if rec.downloaded > 0]


def ref_most_recent(history, n):
    if n <= 0:
        return []
    ranked = sorted(history.items(), key=lambda kv: (-kv[1].last_seen, repr(kv[0])))
    return [peer for peer, _ in ranked[:n]]


class Twin:
    """Distinct peers with one ``repr``: only insertion order separates them."""

    def __repr__(self):
        return "twin"


PEERS = [1, 2, 3, "a", "b", (1, 2), Twin(), Twin()]
peers = st.sampled_from(PEERS)
# Few distinct values, so equal ``last_seen`` / ``downloaded`` ties are common.
times = st.sampled_from([-5.0, 0.0, 1.0, 2.0, 2.0, 7.5, 100.0, math.inf])
sizes = st.sampled_from([0, 0.0, 1, 2.0, 5.0])
windows = st.sampled_from([-1, 0, 1, 2, 10, 50])
ops = st.one_of(
    st.tuples(st.just("up"), peers, sizes, times),
    st.tuples(st.just("down"), peers, sizes, times),
    st.tuples(st.just("touch"), peers, times),
    st.tuples(st.just("top"), windows),
    st.tuples(st.just("recent"), windows),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=40), windows)
def test_incremental_selections_equal_full_sort(stream, n):
    h = PrivateHistory("me")
    for op in stream:
        if op[0] == "up":
            h.record_upload(*op[1:])
        elif op[0] == "down":
            h.record_download(*op[1:])
        elif op[0] == "touch":
            h.touch(*op[1:])
        elif op[0] == "top":
            assert h.top_uploaders(op[1]) == ref_top_uploaders(h, op[1])
        else:
            assert h.most_recent(op[1]) == ref_most_recent(h, op[1])
    assert h.top_uploaders(n) == ref_top_uploaders(h, n)
    assert h.most_recent(n) == ref_most_recent(h, n)
    full = len(h) + 1
    assert h.top_uploaders(full) == ref_top_uploaders(h, full)
    assert h.most_recent(full) == ref_most_recent(h, full)


def test_selection_results_are_callers_own_lists():
    h = PrivateHistory("me")
    h.record_download("a", 5.0, now=1.0)
    h.record_download("b", 3.0, now=2.0)
    h.top_uploaders(10).clear()
    h.most_recent(10).clear()
    assert h.top_uploaders(10) == ["a", "b"]
    assert h.most_recent(10) == ["b", "a"]


# ---------------------------------------------------------------------------
# (b) one-pass view merge == sequential _insert
# ---------------------------------------------------------------------------

def ref_insert(views, view_size, owner, contact, freshness):
    view = views.setdefault(owner, {})
    if contact in view:
        view[contact] = max(view[contact], freshness)
    else:
        view[contact] = freshness
        if len(view) > view_size:
            stalest = min(
                (kv for kv in view.items() if kv[0] != contact),
                key=lambda kv: kv[1],
            )[0]
            del view[stalest]


def ref_exchange(views, view_size, a, b, now):
    va, vb = views[a], views[b]
    snapshot_a = list(va.items())
    snapshot_b = list(vb.items())
    ref_insert(views, view_size, a, b, now)
    ref_insert(views, view_size, b, a, now)
    for contact, fresh in snapshot_b:
        if contact != a:
            ref_insert(views, view_size, a, contact, fresh)
    for contact, fresh in snapshot_a:
        if contact != b:
            ref_insert(views, view_size, b, contact, fresh)


# Views of up to 9 entries against bounds of 1..6: under, at and over
# ``view_size``; contacts include both exchange partners (0 and 1).
views_st = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 50.0]),
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(
    views_st,
    views_st,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 2.0, 60.0]),
)
def test_view_merge_equals_sequential_insert(va, vb, view_size, now):
    rng = RngRegistry(3).stream("pss")
    pss = BuddyCastPSS(is_online=lambda p: True, rng=rng, view_size=view_size)
    pss._views = {0: dict(va), 1: dict(vb)}
    expected = {0: dict(va), 1: dict(vb)}
    # Two rounds: the second starts from views the first one left at the bound.
    for t in (now, now + 1.0):
        pss._exchange(0, 1, t)
        ref_exchange(expected, view_size, 0, 1, t)
        for peer in (0, 1):
            assert list(pss._views[peer].items()) == list(expected[peer].items())
    assert pss.exchanges == 2


# ---------------------------------------------------------------------------
# (c) one-loop ingest == layered path, provenance off and on
# ---------------------------------------------------------------------------

class LayeredIngest(SubjectiveSharedHistory):
    """The provenance-on ingest path as it was before the fusion:
    ``sane_records()``, then ``_apply_record`` -> ``_update_claim`` ->
    ``_materialize`` per record."""

    def __init__(self, owner, graph, provenance):
        super().__init__(owner, graph, provenance=provenance)
        self._prov_record_claim = self._prov.record_claim
        self._msg_id = None
        self._received_at = 0.0

    def ingest(self, message, now=None):
        if message.sender == self.owner:
            raise ValueError("a node cannot ingest its own message")
        self._messages_seen += 1
        if self._prov_on:
            self._msg_id = (
                message.msg_id
                if message.msg_id is not None
                else (message.sender, message.created_at)
            )
            self._received_at = float(
                message.created_at if now is None else now
            )
        sane = message.sane_records()
        self._records_dropped += message.num_records - len(sane)
        applied = 0
        for record in sane:
            if self._apply_record(message.sender, record, message.created_at):
                applied += 1
            else:
                self._records_dropped += 1
        return applied

    def _apply_record(self, reporter, record, reported_at):
        c = record.counterparty
        if c == self.owner or reporter == self.owner:
            # Edges incident to the owner come from the private history only.
            return False
        changed = False
        # reporter -> counterparty: reporter's claimed upload.
        if self._update_claim((reporter, c), reporter, record.uploaded, reported_at):
            changed = True
        # counterparty -> reporter: reporter's claimed download.
        if self._update_claim((c, reporter), reporter, record.downloaded, reported_at):
            changed = True
        if changed:
            self._records_applied += 1
        return changed

    def _update_claim(self, edge, reporter, value, reported_at):
        claims = self._claims.setdefault(edge, {})
        existing = claims.get(reporter)
        if existing is not None:
            if existing.reported_at > reported_at:
                if self._prov_on:
                    self._prov.record_stale(self.owner, edge, reporter)
                return False  # stale
            if existing.reported_at == reported_at and value <= existing.value:
                if self._prov_on:
                    self._prov.record_redelivery(self.owner, edge, reporter)
                return False
            if existing.value == value:
                existing.reported_at = reported_at
                if self._prov_on:
                    old = existing.lineage
                    existing.lineage = lineage = (
                        self._msg_id,
                        self._received_at,
                        old[2] + 1 if old is not None else 1,
                    )
                    self._prov_record_claim(self.owner, edge, reporter, lineage, True)
                return False  # no change
        if self._prov_on:
            if existing is None:
                lineage = (self._msg_id, self._received_at, 0)
            else:
                old = existing.lineage
                lineage = (
                    self._msg_id,
                    self._received_at,
                    old[2] + 1 if old is not None else 1,
                )
            self._prov_record_claim(
                self.owner, edge, reporter, lineage, existing is not None
            )
        else:
            lineage = None
        claims[reporter] = _Claim(
            value=float(value), reported_at=float(reported_at), lineage=lineage
        )
        self._materialize(edge)
        return True


OWNER = "me"
REPORTERS = ["r0", "r1"]
# Few peers, totals and timestamps, so one (reporter, counterparty) pair is
# hit again and again: stale, equal-timestamp, confirming and superseding
# deliveries, records about the owner and about the sender itself.
good_totals = st.sampled_from([0.0, 1.0, 5.0, 5.0, 9.0, 7])
good_record = st.builds(
    HistoryRecord,
    st.sampled_from(["c0", "c0", "r0", "r1", OWNER]),
    good_totals,
    good_totals,
)
any_totals = st.one_of(
    good_totals,
    st.sampled_from([-1.0, math.nan, math.inf, -math.inf, None, "x", [1.0]]),
)
any_counterparty = st.sampled_from(["c0", None, ["unhashable"], {"un": "hashable"}])
hostile_record = st.one_of(
    st.builds(HistoryRecord, any_counterparty, any_totals, any_totals),
    st.sampled_from([None, "junk", ("c0", 1.0, 2.0)]),
)
message_st = st.builds(
    BarterCastMessage,
    sender=st.sampled_from(REPORTERS),
    created_at=st.sampled_from([1.0, 2.0, 2.0, 3.0]),
    records=st.lists(st.one_of(good_record, good_record, hostile_record), max_size=5),
    msg_id=st.sampled_from([None, ("r0", 1), ("r1", 7)]),
)
delivery_st = st.tuples(message_st, st.sampled_from([None, 4.0, 9.5]))


def _state(store):
    graph = store._graph
    return {
        "applied": store.records_applied,
        "dropped": store.records_dropped,
        "seen": store.messages_seen,
        "claims": [
            (edge, [(r, c.value, c.reported_at) for r, c in claims.items()])
            for edge, claims in store._claims.items()
        ],
        "edges": list(graph.edges()),
        "nodes": list(graph.nodes()),
        "version": graph.version,
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(delivery_st, max_size=10))
def test_one_loop_ingest_equals_layered_path(deliveries):
    layered = LayeredIngest(OWNER, TransferGraph(), ProvenanceRecorder())
    prov_on = SubjectiveSharedHistory(
        OWNER, TransferGraph(), provenance=ProvenanceRecorder()
    )
    prov_off = SubjectiveSharedHistory(OWNER, TransferGraph())
    assert prov_on.provenance_enabled and not prov_off.provenance_enabled
    for message, received_at in deliveries:
        expected = layered.ingest(message, now=received_at)
        assert prov_on.ingest(message, now=received_at) == expected
        assert prov_off.ingest(message, now=received_at) == expected
        assert _state(prov_on) == _state(prov_off) == _state(layered)
    # Lineage and the recorder's event counts are part of the on path.
    assert prov_on._prov.summary() == layered._prov.summary()
    for src, dst in layered.known_edges():
        assert prov_on.lineage_of(src, dst) == layered.lineage_of(src, dst)
        assert prov_off.lineage_of(src, dst) == {}
        for reporter in REPORTERS:
            assert prov_off.claim_of(reporter, src, dst) == layered.claim_of(
                reporter, src, dst
            )


# ---------------------------------------------------------------------------
# (d) wire-record reuse
# ---------------------------------------------------------------------------

def _by_peer(records):
    return {r.counterparty: r for r in records}


def test_wire_record_reused_until_totals_change():
    h = PrivateHistory("me")
    h.record_upload("a", 10.0, now=1.0)
    h.record_download("b", 4.0, now=2.0)
    first = _by_peer(select_records(h, 10, 10))

    h.touch("a", 50.0)  # recency moves, totals do not
    again = _by_peer(select_records(h, 10, 10))
    assert again["a"] is first["a"] and again["b"] is first["b"]

    h.record_upload("a", 1.0, now=60.0)
    h.record_download("b", 0.0, now=60.0)  # a zero-byte transfer changes nothing
    after = _by_peer(select_records(h, 10, 10))
    assert after["a"] is not first["a"]
    assert (after["a"].uploaded, after["a"].downloaded) == (11.0, 0.0)
    assert after["b"] is first["b"]
    # The record already on the wire still says what was true when it was sent.
    assert (first["a"].uploaded, first["a"].downloaded) == (10.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, max_size=30))
def test_wire_records_always_match_the_ledger(stream):
    h = PrivateHistory("me")
    for op in stream:
        if op[0] == "up":
            h.record_upload(*op[1:])
        elif op[0] == "down":
            h.record_download(*op[1:])
        elif op[0] == "touch":
            h.touch(*op[1:])
        else:
            for record in select_records(h, op[1], op[1]):
                totals = h.get(record.counterparty)
                assert (record.uploaded, record.downloaded) == (
                    totals.uploaded,
                    totals.downloaded,
                )


def test_selfish_liar_rewrites_instead_of_mutating_reused_records():
    node = BarterCastNode("liar", behavior=SelfishLiar())
    node.record_upload("a", 10.0, now=1.0)
    node.record_download("b", 4.0, now=2.0)
    honest = _by_peer(select_records(node.history, 10, 10))

    lie = node.create_message(now=3.0)
    assert {r.counterparty for r in lie.records} == set(honest)
    for record in lie.records:
        assert record is not honest[record.counterparty]
        assert (record.uploaded, record.downloaded) == (SelfishLiar().lie_upload_bytes, 0.0)

    # The honest records the lie was derived from are untouched and still served.
    node.behavior = HonestBehavior()
    truth = _by_peer(node.create_message(now=4.0).records)
    assert truth["a"] is honest["a"] and truth["b"] is honest["b"]
    assert (truth["a"].uploaded, truth["b"].downloaded) == (10.0, 4.0)
