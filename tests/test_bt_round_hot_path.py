"""System ≡ model for the BitTorrent round.

The round reads ``SwarmState.leecher_roster`` / ``seeder_roster`` instead of
rescanning ``swarm.members``, stays out of the choker for a swarm with no
online leecher, and rolls rates over only for members that moved bytes.
The reference is ``model.bt_round``, a round that scans every member: twin
simulators, one rounding through the model, must write the same bytes, RNG
state, members and counters, compared by ``==`` after every step.  Whole
runs against the model are in ``tests/test_model.py``.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bittorrent.simulator as simulator_module
from repro.bittorrent.choker import interested_candidates, select_unchokes
from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.piece import pick_rarest
from repro.bittorrent.roles import Role, RoleAssignment
from repro.bittorrent.simulator import CommunitySimulator
from repro.bittorrent.swarm import SwarmState
from repro.traces.models import CommunityTrace, PeerProfile, PeerSession, SwarmSpec
from tests import model
from tests.conftest import snapshot


def check_swarm(swarm, is_online, connectable):
    """Rosters, candidates and availability against full scans of ``members``.
    Candidates come from the round's two pools (every online leecher, the
    connectable ones), the model's from the pairwise connection rule."""
    members = swarm.members.values()
    leechers = [id(m) for m in members if not model.complete(m)]
    seeders = {m.peer_id: id(m) for m in members if model.complete(m)}
    assert [id(m) for m in swarm.leecher_roster.values()] == leechers
    assert {p: id(m) for p, m in swarm.seeder_roster.items()} == seeders
    online_leechers = [p for p in swarm.leecher_roster if is_online(p)]
    reachable = [p for p in online_leechers if connectable(p)]
    can_connect = lambda a, b: connectable(a) or connectable(b)
    for up in members:
        got = interested_candidates(up, online_leechers if connectable(up.peer_id) else reachable)
        assert got == model.candidates(swarm, up, is_online, can_connect)
    # Rarest-first counts are exactly the copies held by members, however
    # often or redundantly pieces were granted.
    held = [m.bitfield.have for m in members]
    assert (swarm.availability == sum(held, np.zeros(swarm.num_pieces, int))).all()
    assert [m.bitfield.num_have for m in members] == [h.sum() for h in held]


# --- One swarm: rosters and candidates ---------------------------------------

NUM_PIECES = 6
CONNECTABLE = {0: True, 1: False, 2: True, 3: False, 4: False, 5: True}
peer_ids = st.sampled_from(sorted(CONNECTABLE))
swarm_ops = st.one_of(
    st.tuples(st.just("join"), peer_ids, st.booleans()),
    # Repeated and already-held indices included on purpose.
    st.tuples(st.just("grant"), peer_ids, st.lists(st.integers(0, NUM_PIECES - 1), min_size=1, max_size=4)),
    st.tuples(st.just("finish"), peer_ids),
    st.tuples(st.just("leave"), peer_ids),
    st.tuples(st.just("toggle"), peer_ids),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(swarm_ops, max_size=40))
def test_rosters_and_candidates_equal_full_scan(ops):
    swarm = SwarmState(SwarmSpec(0, file_size=10.0 * NUM_PIECES, piece_size=10.0, origin_seeder=0))
    online = set(CONNECTABLE)
    for step, (kind, pid, *args) in enumerate(ops):
        member, now = swarm.members.get(pid), float(step)
        if kind == "join":
            swarm.join(pid, now, complete=args[0])
        elif kind == "grant" and member is not None:
            swarm.grant_pieces(member, np.array(args[0]), now)
        elif kind == "finish" and member is not None:
            swarm.grant_pieces(member, np.arange(NUM_PIECES), now)
        elif kind == "leave":
            swarm.leave(pid)
        elif kind == "toggle":
            online.symmetric_difference_update({pid})
        check_swarm(swarm, online.__contains__, CONNECTABLE.__getitem__)


# --- Piece picking and granting against the model ---------------------------

def piece_state(swarm, member):
    bitfield = member.bitfield
    return (bitfield.have.tolist(), bitfield.num_have, swarm.availability.tolist(),
            member.completed_at, swarm.completions)


masks = st.lists(st.booleans(), min_size=NUM_PIECES, max_size=NUM_PIECES)
pick_grant_ops = st.one_of(
    st.tuples(st.just("pick"), masks, st.one_of(st.just(1), st.integers(0, NUM_PIECES + 1))),
    # One-piece grants of held pieces, and repeated indices, on purpose.
    st.tuples(st.just("grant"), st.lists(st.integers(0, NUM_PIECES - 1), min_size=1, max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(
    availability=st.lists(st.integers(0, 3), min_size=NUM_PIECES, max_size=NUM_PIECES),
    ops=st.lists(pick_grant_ops, max_size=12),
)
def test_pick_rarest_and_grant_pieces_equal_model(availability, ops):
    """``pick_rarest`` is ``model.rarest`` sorted rarest first (stable), and
    ``grant_pieces`` — fed those picks, masks that may name held pieces,
    or raw index lists — writes what ``model.grant`` writes."""
    swarm, ref = (SwarmState(SwarmSpec(0, 10.0 * NUM_PIECES, 10.0, origin_seeder=0)) for _ in "ab")
    for twin in (swarm, ref):
        twin.join(3, 0.0)
        twin.availability[:] = availability
    member, ref_member = swarm.members[3], ref.members[3]
    for step, (kind, *args) in enumerate(ops, 1):
        if kind == "pick":
            wanted, k = np.array(args[0]), args[1]
            pieces = pick_rarest(swarm.availability, wanted, k)
            want = model.rarest(ref.availability, wanted, k)
            assert pieces.tolist() == want[np.argsort(ref.availability[want], kind="stable")].tolist()
        else:
            pieces = np.array(args[0])
        was_complete = ref_member.completed_at is not None
        finished = swarm.grant_pieces(member, pieces, float(step))
        model.grant(ref, ref_member, pieces, float(step))
        assert finished == (not was_complete and ref_member.completed_at is not None)
        assert piece_state(swarm, member) == piece_state(ref, ref_member)


# --- Twin simulators, one rounding through the model -------------------------

def build_twin(seed):
    """Eight peers, ``0..2`` the origin seeders of swarms ``0..2``; uneven
    uplinks and a tight downlink so the receiver cap binds; every third
    peer unconnectable; one regular slot, so the optimistic slot is in play
    with two leechers.  Only the t=0 events (origin joins, session starts)
    have fired."""
    peers = {
        p: PeerProfile(
            p, 700.0 + 130.0 * p, 900.0 if p % 4 == 1 else 2500.0, p % 3 != 2, [PeerSession(0.0, 1e5)]
        )
        for p in range(8)
    }
    swarms = {s: SwarmSpec(s, 700.0 + 100.0 * s, 100.0, origin_seeder=s) for s in range(3)}
    roles = {p: Role.ORIGIN if p < 3 else Role.SHARER if p % 2 else Role.FREERIDER for p in range(8)}
    config = BitTorrentConfig(
        round_interval=10.0, regular_slots=1, optimistic_interval=30.0, seed_time=45.0
    )
    trace = CommunityTrace(duration=1e5, peers=peers, swarms=swarms, requests=[])
    sim = CommunitySimulator(trace, RoleAssignment(roles=roles), config=config, seed=seed)
    sim.engine.run_until(0.0)
    return sim


class Twins:
    """``sim`` rounds through the simulator, ``ref`` through the model.  A
    round's ``(up, down, swarm_id)`` rows are added to the links the choker
    chose; they may name non-members.  ``chokes`` lists the uploaders the
    choker was entered for, never with no online leecher: the round
    clears such a swarm's optimistic targets itself."""

    def __init__(self, seed=1):
        self.sim, self.ref = build_twin(seed), build_twin(seed)
        self.ref._round_body = lambda: model.bt_round(self.ref)
        self.sim._collect_links = lambda: self.add(self.sim, CommunitySimulator._collect_links(self.sim))
        self.extra, self.chokes = [], []

    def add(self, twin, chosen):
        return chosen + [(up, down, twin.swarms[s]) for up, down, s in self.extra]

    def choke(self, uploader, pool, **kwargs):
        # The pool may be empty (an unconnectable uploader, no connectable
        # leecher); the uploader's swarm never is without online leechers.
        swarm, = (s for s in self.sim.swarms.values() if s.members.get(uploader.peer_id) is uploader)
        assert any(self.sim.is_online(p) for p in swarm.leecher_roster)
        self.chokes.append(uploader.peer_id)
        return select_unchokes(uploader, pool, **kwargs)

    def step(self, kind, *args):
        """One op on both twins, then everything they show, by ``==``."""
        self.extra[:] = args[0] if kind == "round" else []
        sim = self.sim
        if kind == "grant" and args[0][1] in sim.swarms[args[0][0]].members:
            (sid, pid), pieces = args[0], np.array(args[1])
            now = sim.engine.now
            sim.swarms[sid].grant_pieces(sim.swarms[sid].members[pid], pieces, now)
            model.grant(self.ref.swarms[sid], self.ref.swarms[sid].members[pid], pieces, now)
        for twin in (sim, self.ref):
            if kind == "join":
                twin._join(*args[0], complete=args[1])
            elif kind == "leave":
                twin._leave(*args[0])
            elif kind == "online":
                # No churn: the live set is the online set.  It is updated
                # in place, since the PSS holds its ``__contains__``.
                twin.online = set(args[0])
                twin.live.clear()
                twin.live.update(args[0])
            elif kind == "round":
                twin.engine.run_until(twin.engine.now + twin.config.round_interval)
        assert snapshot(sim) == snapshot(self.ref)
        for swarm in sim.swarms.values():
            check_swarm(swarm, sim.is_online, lambda p: sim.trace.peers[p].connectable)


@contextmanager
def twins(seed=1):
    t, collect = Twins(seed), model.collect_links
    with mock.patch.object(model, "collect_links", lambda twin: t.add(twin, collect(twin))), \
            mock.patch.object(simulator_module, "select_unchokes", t.choke):
        yield t


everyone = set(range(8))
swarm_peer = st.tuples(st.integers(0, 2), st.integers(0, 7))
links = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2)), max_size=5)
twin_ops = st.one_of(
    st.tuples(st.just("join"), swarm_peer, st.booleans()),
    st.tuples(st.just("leave"), swarm_peer),
    # Repeated and already-held indices included on purpose.
    st.tuples(st.just("grant"), swarm_peer, st.lists(st.integers(0, 6), min_size=1, max_size=4)),
    st.tuples(st.just("online"), st.one_of(st.sets(st.integers(0, 7)), st.just(everyone))),
    st.tuples(st.just("round"), links),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 6), ops=st.lists(twin_ops, max_size=30))
def test_round_helpers_equal_reference_on_random_rounds(seed, ops):
    with twins(seed) as t:
        for op in ops:
            t.step(*op)


def test_update_rates_clears_a_member_that_went_quiet():
    with twins() as t:
        t.step("join", (0, 3), False)
        t.step("join", (0, 5), False)
        t.step("round", [(0, 3, 0), (0, 5, 0)])
        assert t.sim.transfers
        assert t.sim.swarms[0].members[3].received_last_round
        assert t.sim.swarms[0].members[0].sent_last_round
        # Nobody online: no links, nothing moves — last round's rates must go.
        t.step("online", set())
        t.step("round", [])
        for member in t.sim.swarms[0].members.values():
            assert member.received_last_round == {} and member.sent_last_round == {}


def test_update_rates_across_leave_and_rejoin():
    with twins() as t:
        t.step("join", (0, 3), False)
        t.step("round", [(0, 3, 0)])
        stale = t.sim.swarms[0].members[3]
        assert stale.received_last_round
        t.step("leave", (0, 3))
        t.step("join", (0, 3), False)
        fresh = t.sim.swarms[0].members[3]
        assert fresh is not stale and fresh.received_last_round == {}
        t.step("online", set())
        t.step("round", [])
        assert fresh.received_last_round == {} and fresh.sent_last_round == {}
        # ... and it is rated again as soon as it moves bytes.
        t.step("online", everyone)
        t.step("round", [(0, 3, 0)])
        assert fresh.received_last_round


def test_swarm_without_online_leecher_only_clears_optimistic_targets():
    with twins() as t:
        t.step("join", (0, 3), False)
        t.step("join", (0, 4), False)
        t.step("round", [])
        assert t.sim.swarms[0].members[0].optimistic_peer is not None
        t.step("online", everyone - {3, 4})
        t.chokes.clear()
        t.step("round", [])
        assert t.chokes == []  # the choker was not entered at all
        assert t.sim.swarms[0].members[0].optimistic_peer is None
