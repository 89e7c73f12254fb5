"""Equivalence tests for the O(active links) BitTorrent round.

The round no longer rescans ``swarm.members`` per uploader and per
helper: it reads ``SwarmState.leecher_roster`` / ``seeder_roster``, stays
out of the choker for a swarm with no online leecher, builds one
candidate mask per transfer, and rolls rates over only for members that
moved bytes.  Each of those is checked against a reference that is the
code it replaced, kept here verbatim (``self`` spelled ``sim``): the
full-scan ``interested_candidates``, the ``select_unchokes`` and
``pick_rarest`` that went with it, ``grant_pieces`` / ``add_many``, and
the old ``_round_body`` with every helper it called.

``MemberState.in_flight`` is gone from the source, so the reference keeps
its (never-set) masks in ``_in_flight`` below.
"""

import random
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bittorrent.simulator as simulator_module
from repro.bittorrent.choker import interested_candidates
from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.roles import Role, RoleAssignment
from repro.bittorrent.simulator import CommunitySimulator
from repro.bittorrent.swarm import SwarmState
from repro.core.policies import BanPolicy, NoPolicy, RankPolicy
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.traces.models import (
    CommunityTrace,
    PeerProfile,
    PeerSession,
    SwarmSpec,
)

MB = 1024.0**2


# ---------------------------------------------------------------------------
# The replaced code, verbatim
# ---------------------------------------------------------------------------

def ref_interested_candidates(swarm, uploader, is_online, can_connect):
    if uploader.bitfield.num_have == 0:
        return []
    out = []
    for pid, member in swarm.members.items():
        if pid == uploader.peer_id or not member.is_leecher:
            continue
        if not is_online(pid):
            continue
        if not can_connect(uploader.peer_id, pid):
            continue
        out.append(pid)
    return out


def ref_select_unchokes(
    swarm, uploader, *, policy, node, rng, round_idx, config, is_online, can_connect, obs=None
):
    candidates = ref_interested_candidates(swarm, uploader, is_online, can_connect)
    if not candidates:
        uploader.optimistic_peer = None
        return set()
    # ``policy.prewarm`` is gone from the source; this is its body.
    if isinstance(policy, (RankPolicy, BanPolicy)) and node is not None:
        node.reputations_of(candidates)
    allowed = [c for c in candidates if policy.allows(node, c)]
    if obs is not None and obs.metrics.enabled:
        metrics = obs.metrics
        metrics.counter("choke.calls").inc()
        banned = len(candidates) - len(allowed)
        if banned:
            metrics.counter("choke.banned").inc(banned)

    if uploader.is_seeder:
        key = uploader.sent_last_round
    else:
        key = uploader.received_last_round
    ranked = rng.shuffled(allowed)
    ranked.sort(key=lambda pid: -key.get(pid, 0.0))
    regular = set(ranked[: config.regular_slots])

    rotation_due = (
        round_idx - uploader.optimistic_chosen_round >= config.optimistic_every_rounds
    )
    current = uploader.optimistic_peer
    promoted = current is not None and current in allowed and current in regular
    current_valid = (
        current is not None
        and current in allowed
        and current not in regular
    )
    if rotation_due or not current_valid:
        remaining = [c for c in allowed if c not in regular]
        ordered = policy.order_optimistic(node, remaining, rng)
        uploader.optimistic_peer = ordered[0] if ordered else None
        if rotation_due or not promoted:
            uploader.optimistic_chosen_round = round_idx
    if uploader.optimistic_peer is not None:
        regular.add(uploader.optimistic_peer)
    return regular


def ref_pick_rarest(availability, uploader_have, receiver_have, in_flight, k):
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    candidates = ~(receiver_have | in_flight)
    if uploader_have is not None:
        candidates &= uploader_have
    idx = np.flatnonzero(candidates)
    if idx.size == 0:
        return idx
    if idx.size <= k:
        order = np.argsort(availability[idx], kind="stable")
        return idx[order]
    counts = availability[idx]
    part = np.argpartition(counts, k - 1)[:k]
    chosen = idx[part]
    order = np.argsort(availability[chosen], kind="stable")
    return chosen[order]


def ref_add_many(bitfield, pieces):
    if len(pieces) == 0:
        return 0
    new = ~bitfield.have[pieces]
    count = int(new.sum())
    if count:
        bitfield.have[pieces[new]] = True
        bitfield._num_have += count
    return count


def ref_grant_pieces(swarm, member, pieces, now):
    new = ref_add_many(member.bitfield, pieces)
    if new:
        swarm.availability[pieces] += 1
    if member.completed_at is None and member.bitfield.is_complete:
        member.completed_at = now
        swarm.completions += 1
        return True
    return False


def _in_flight(swarm, member):
    """``member.in_flight`` as it was: allocated at join, all False."""
    mask = member.__dict__.get("in_flight")
    if mask is None:
        mask = member.__dict__["in_flight"] = np.zeros(swarm.num_pieces, dtype=bool)
    return mask


def ref_clear_in_flight(swarm):
    for member in swarm.members.values():
        _in_flight(swarm, member)[:] = False


def ref_round_body(sim):
    now = sim.engine.now
    dt = sim.config.round_interval
    sim.round_idx += 1

    ref_expire_seeders(sim, now)
    links = ref_collect_links(sim)
    transfers = ref_allocate_bandwidth(sim, links, dt)
    completed = ref_execute_transfers(sim, transfers, now)
    ref_update_rates(sim, transfers)
    ref_account_leech_time(sim, now, dt)
    sim._handle_completions(completed)


def ref_expire_seeders(sim, now):
    seed_time = sim.config.seed_time
    for sid, swarm in sim.swarms.items():
        expired = [
            m.peer_id
            for m in swarm.members.values()
            if m.is_seeder
            and sim.roles.role_of(m.peer_id) == Role.SHARER
            and m.completed_at is not None
            and now >= m.completed_at + seed_time
        ]
        for pid in expired:
            sim._leave(sid, pid)


def ref_collect_links(sim):
    links = []
    for swarm in sim.swarms.values():
        if len(swarm.members) < 2:
            continue
        ref_clear_in_flight(swarm)
        for member in swarm.members.values():
            pid = member.peer_id
            if not sim.is_online(pid):
                continue
            is_origin = sim.roles.role_of(pid) == Role.ORIGIN
            unchoked = ref_select_unchokes(
                swarm,
                member,
                policy=sim._origin_policy if is_origin else sim.policy,
                node=sim.nodes[pid],
                rng=sim._choke_rng,
                round_idx=sim.round_idx,
                config=sim.config,
                is_online=sim.is_online,
                can_connect=sim.can_connect,
            )
            for target in unchoked:
                links.append((pid, target, swarm))
    return links


def ref_allocate_bandwidth(sim, links, dt):
    if not links:
        return []
    n_links = Counter(up for up, _, _ in links)
    intended = [
        (up, down, swarm, sim.trace.peers[up].uplink_bps * dt / n_links[up])
        for up, down, swarm in links
    ]
    incoming = defaultdict(float)
    for up, down, _, b in intended:
        incoming[down] += b
    scale = {
        down: min(1.0, sim.trace.peers[down].downlink_bps * dt / total)
        for down, total in incoming.items()
        if total > 0
    }
    return [
        (up, down, swarm, b * scale.get(down, 1.0)) for up, down, swarm, b in intended
    ]


def ref_execute_transfers(sim, transfers, now):
    completed = []
    sim._recv_acc = defaultdict(dict)
    sim._sent_acc = defaultdict(dict)
    for up, down, swarm, budget in transfers:
        moved = ref_transfer(sim, swarm, up, down, budget, now)
        if moved > 0:
            sid = swarm.spec.swarm_id
            recv = sim._recv_acc[(sid, down)]
            recv[up] = recv.get(up, 0.0) + moved
            sent = sim._sent_acc[(sid, up)]
            sent[down] = sent.get(down, 0.0) + moved
            member = swarm.members.get(down)
            if member is not None and member.bitfield.is_complete:
                completed.append((swarm, down))
    return completed


def ref_transfer(sim, swarm, up, down, budget, now):
    if budget <= 0:
        return 0.0
    um = swarm.members.get(up)
    dm = swarm.members.get(down)
    if um is None or dm is None or dm.bitfield.is_complete:
        return 0.0
    piece_size = swarm.spec.piece_size
    uploader_have = None if um.bitfield.is_complete else um.bitfield.have
    candidates = ~(dm.bitfield.have | _in_flight(swarm, dm))
    if uploader_have is not None:
        candidates &= uploader_have
    n_candidates = int(np.count_nonzero(candidates))
    if n_candidates == 0:
        return 0.0
    carry = dm.carry.get(up, 0.0)
    max_bytes = n_candidates * piece_size - carry
    actual = min(budget, max_bytes)
    if actual <= 0:
        return 0.0
    total = carry + actual
    n_complete = int(total // piece_size)
    dm.carry[up] = total - n_complete * piece_size
    if n_complete > 0:
        pieces = ref_pick_rarest(
            swarm.availability, uploader_have, dm.bitfield.have, _in_flight(swarm, dm), n_complete
        )
        ref_grant_pieces(swarm, dm, pieces, now)
    sim.nodes[up].record_upload(down, actual, now)
    sim.nodes[down].record_download(up, actual, now)
    sim.stats.record_transfer(up, down, actual, now)
    return actual


def ref_update_rates(sim, transfers):
    for swarm in sim.swarms.values():
        sid = swarm.spec.swarm_id
        for member in swarm.members.values():
            member.received_last_round = sim._recv_acc.get((sid, member.peer_id), {})
            member.sent_last_round = sim._sent_acc.get((sid, member.peer_id), {})


def ref_account_leech_time(sim, now, dt):
    leeching = set()
    for swarm in sim.swarms.values():
        for member in swarm.members.values():
            if member.is_leecher and sim.is_online(member.peer_id):
                leeching.add(member.peer_id)
    for pid in leeching:
        sim.stats.record_leech_time(pid, dt, now)


# ---------------------------------------------------------------------------
# (a) rosters == full scans, roster-derived candidates == full-scan candidates
# ---------------------------------------------------------------------------

NUM_PIECES = 6
PEERS = list(range(6))
CONNECTABLE = {0: True, 1: False, 2: True, 3: False, 4: False, 5: True}

peer_ids = st.sampled_from(PEERS)
swarm_ops = st.one_of(
    st.tuples(st.just("join"), peer_ids, st.booleans()),
    # Repeated and already-held indices included on purpose.
    st.tuples(
        st.just("grant"),
        peer_ids,
        st.lists(st.integers(min_value=0, max_value=NUM_PIECES - 1), min_size=1, max_size=4),
    ),
    st.tuples(st.just("finish"), peer_ids),
    st.tuples(st.just("leave"), peer_ids),
    st.tuples(st.just("toggle"), peer_ids),
)


def assert_rosters_match_scan(swarm):
    members = list(swarm.members.values())
    scan_leechers = [m for m in members if m.is_leecher]
    scan_seeders = [m for m in members if m.is_seeder]
    for got, want in (
        (list(swarm.leecher_roster.values()), scan_leechers),
        (swarm.leechers(), scan_leechers),
        (swarm.seeders(), scan_seeders),
    ):
        assert [id(m) for m in got] == [id(m) for m in want]
    assert sorted(swarm.seeder_roster) == sorted(m.peer_id for m in scan_seeders)
    assert all(swarm.seeder_roster[m.peer_id] is m for m in scan_seeders)


@settings(max_examples=200, deadline=None)
@given(st.lists(swarm_ops, max_size=40))
def test_rosters_and_candidates_equal_full_scan(stream):
    swarm = SwarmState(
        SwarmSpec(0, file_size=10.0 * NUM_PIECES, piece_size=10.0, origin_seeder=0)
    )
    online = set(PEERS)
    is_online = online.__contains__
    can_connect = lambda a, b: CONNECTABLE[a] or CONNECTABLE[b]
    for step, op in enumerate(stream):
        now = float(step)
        member = swarm.members.get(op[1])
        if op[0] == "join":
            swarm.join(op[1], now, complete=op[2])
        elif op[0] == "grant" and member is not None:
            swarm.grant_pieces(member, np.array(op[2]), now)
        elif op[0] == "finish" and member is not None:
            swarm.grant_pieces(member, np.arange(NUM_PIECES), now)
        elif op[0] == "leave":
            swarm.leave(op[1])
        elif op[0] == "toggle":
            online.symmetric_difference_update({op[1]})

        assert_rosters_match_scan(swarm)
        online_leechers = [pid for pid in swarm.leecher_roster if is_online(pid)]
        for uploader in swarm.members.values():
            assert interested_candidates(
                uploader, online_leechers, can_connect
            ) == ref_interested_candidates(swarm, uploader, is_online, can_connect)
        # Rarest-first counts are exactly the copies held by members,
        # however often or redundantly pieces were granted.
        held = sum(m.bitfield.have.astype(np.int32) for m in swarm.members.values())
        assert (swarm.availability == held).all()
        for m in swarm.members.values():
            assert m.bitfield.num_have == int(m.bitfield.have.sum())


# ---------------------------------------------------------------------------
# (b) round helpers: twin simulators, one stepped by the reference
# ---------------------------------------------------------------------------

def build_twin(seed=1, num_peers=8, num_swarms=3, seed_time=45.0):
    """A hand-built community: peers ``0..num_swarms-1`` are the origin
    seeders; uneven uplinks and a tight downlink so the receiver cap
    binds; every third peer unconnectable."""
    peers = {
        pid: PeerProfile(
            peer_id=pid,
            uplink_bps=700.0 + 130.0 * pid,
            downlink_bps=900.0 if pid % 4 == 1 else 2500.0,
            connectable=pid % 3 != 2,
            sessions=[PeerSession(0.0, 100_000.0)],
        )
        for pid in range(num_peers)
    }
    swarms = {
        sid: SwarmSpec(sid, file_size=700.0 + 100.0 * sid, piece_size=100.0, origin_seeder=sid)
        for sid in range(num_swarms)
    }
    trace = CommunityTrace(duration=100_000.0, peers=peers, swarms=swarms, requests=[])
    roles = RoleAssignment(
        roles={
            pid: Role.ORIGIN if pid < num_swarms else (Role.SHARER if pid % 2 else Role.FREERIDER)
            for pid in range(num_peers)
        }
    )
    # One regular slot, so the optimistic slot is in play with two leechers.
    config = BitTorrentConfig(
        round_interval=10.0, regular_slots=1, optimistic_interval=30.0, seed_time=seed_time
    )
    sim = CommunitySimulator(trace, roles, config=config, seed=seed)
    # Fire the t=0 events (origin joins, session starts) and no more: the
    # engine's own bt-round process must not run between the twin rounds.
    sim.engine.run_until(0.0)
    return sim


def snapshot(sim):
    """Everything the round helpers write, in comparable form."""
    swarms = {
        sid: (
            [
                (
                    pid,
                    m.bitfield.have.tobytes(),
                    m.bitfield.num_have,
                    m.joined_at,
                    m.completed_at,
                    m.received_last_round,
                    m.sent_last_round,
                    m.carry,
                    m.optimistic_peer,
                    m.optimistic_chosen_round,
                )
                for pid, m in swarm.members.items()
            ],
            swarm.availability.tolist(),
            swarm.completions,
        )
        for sid, swarm in sim.swarms.items()
    }
    stats = sim.stats
    return (
        swarms,
        stats.uploaded.tobytes(),
        stats.downloaded.tobytes(),
        stats.leech_time.tobytes(),
        sim._choke_rng.generator.bit_generator.state,
    )


def plain(rows):
    """Link / transfer / completion rows with the swarm as its id."""
    return [
        tuple(x.spec.swarm_id if isinstance(x, SwarmState) else x for x in row) for row in rows
    ]


def twin_round(new, ref, now, extra_links=()):
    """One round on both simulators — ``new`` through the simulator's own
    helpers, ``ref`` through the references — asserting equality after
    every phase.  ``extra_links`` are ``(up, down, swarm_id)`` rows added
    to what the choker chose (they may name non-members)."""
    dt = new.config.round_interval
    new.round_idx += 1
    ref.round_idx += 1

    new._expire_seeders(now)
    ref_expire_seeders(ref, now)
    assert snapshot(new) == snapshot(ref)

    links_new = new._collect_links()
    links_ref = ref_collect_links(ref)
    assert plain(links_new) == plain(links_ref)
    links_new += [(up, down, new.swarms[sid]) for up, down, sid in extra_links]
    links_ref += [(up, down, ref.swarms[sid]) for up, down, sid in extra_links]

    transfers_new = new._allocate_bandwidth(links_new, dt)
    transfers_ref = ref_allocate_bandwidth(ref, links_ref, dt)
    assert plain(transfers_new) == plain(transfers_ref)  # floats by ==

    completed_new = new._execute_transfers(transfers_new, now)
    completed_ref = ref_execute_transfers(ref, transfers_ref, now)
    assert plain(completed_new) == plain(completed_ref)

    new._update_rates()
    ref_update_rates(ref, transfers_ref)
    new._account_leech_time(now, dt)
    ref_account_leech_time(ref, now, dt)
    assert snapshot(new) == snapshot(ref)

    new._handle_completions(completed_new)
    ref._handle_completions(completed_ref)
    assert snapshot(new) == snapshot(ref)
    for swarm in new.swarms.values():
        assert_rosters_match_scan(swarm)
    return transfers_new


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_round_helpers_equal_reference_on_random_rounds(seed):
    rnd = random.Random(seed)
    new, ref = build_twin(seed=seed % 7), build_twin(seed=seed % 7)
    peers = sorted(new.trace.peers)
    sids = sorted(new.swarms)
    now = 0.0
    for _ in range(30):
        roll = rnd.random()
        pid, sid = rnd.choice(peers), rnd.choice(sids)
        if roll < 0.35:
            new._join(sid, pid)
            ref._join(sid, pid)
        elif roll < 0.45:
            new._leave(sid, pid)
            ref._leave(sid, pid)
        elif roll < 0.60:
            for sim in (new, ref):
                sim.online.symmetric_difference_update({pid})
        else:
            now += 10.0
            extra = [
                (rnd.choice(peers), rnd.choice(peers), rnd.choice(sids))
                for _ in range(rnd.randrange(0, 6))
            ]
            twin_round(new, ref, now, extra)


def test_update_rates_clears_a_member_that_went_quiet():
    new, ref = build_twin(), build_twin()
    for sim in (new, ref):
        sim._join(0, 3)
        sim._join(0, 5)
    transfers = twin_round(new, ref, 10.0, extra_links=[(0, 3, 0), (0, 5, 0)])
    assert transfers
    assert new.swarms[0].members[3].received_last_round
    assert new.swarms[0].members[0].sent_last_round
    # Nobody online: no links, nothing moves — last round's rates must go.
    for sim in (new, ref):
        sim.online.clear()
    twin_round(new, ref, 20.0)
    for member in new.swarms[0].members.values():
        assert member.received_last_round == {} and member.sent_last_round == {}


def test_update_rates_across_leave_and_rejoin():
    new, ref = build_twin(), build_twin()
    for sim in (new, ref):
        sim._join(0, 3)
    twin_round(new, ref, 10.0, extra_links=[(0, 3, 0)])
    stale = new.swarms[0].members[3]
    assert stale.received_last_round
    for sim in (new, ref):
        sim._leave(0, 3)
        sim._join(0, 3)
    fresh = new.swarms[0].members[3]
    assert fresh is not stale and fresh.received_last_round == {}
    for sim in (new, ref):
        sim.online.clear()
    twin_round(new, ref, 20.0)
    assert fresh.received_last_round == {} and fresh.sent_last_round == {}
    # ... and it is rated again as soon as it moves bytes.
    for sim in (new, ref):
        sim.online.update(sim.trace.peers)
    twin_round(new, ref, 30.0, extra_links=[(0, 3, 0)])
    assert fresh.received_last_round


def test_swarm_without_online_leecher_only_clears_optimistic_targets(monkeypatch):
    new, ref = build_twin(), build_twin()
    for sim in (new, ref):
        sim._join(0, 3)
        sim._join(0, 4)
    twin_round(new, ref, 10.0)
    assert new.swarms[0].members[0].optimistic_peer is not None
    for sim in (new, ref):
        sim.online.difference_update({3, 4})
    calls = []
    real = simulator_module.select_unchokes
    monkeypatch.setattr(
        simulator_module, "select_unchokes", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    twin_round(new, ref, 20.0)
    assert calls == []  # the choker was not entered at all
    assert new.swarms[0].members[0].optimistic_peer is None


# ---------------------------------------------------------------------------
# (c) whole runs: reference round body monkeypatched in vs the new one
# ---------------------------------------------------------------------------

def _busy(seed):
    """``tiny`` with files large enough that downloads overlap, a 30 s
    round against a 90 s optimistic rotation and a seed window that
    expires within the day: policies change who gets served."""
    base = ScenarioConfig.tiny(seed)
    return replace(
        base,
        trace_params=replace(
            base.trace_params,
            num_peers=20,
            swarms_per_peer_mean=1.8,
            min_file_size=300 * MB,
            max_file_size=900 * MB,
        ),
        bt_config=replace(
            base.bt_config, round_interval=30.0, optimistic_interval=90.0, seed_time=7200.0
        ),
    )


def _run(scenario, policy):
    sim = build_simulation(scenario, policy=policy)
    sim.run()
    return sim


@pytest.mark.parametrize(
    "make_scenario, seed",
    [(ScenarioConfig.tiny, 3), (ScenarioConfig.tiny, 11), (_busy, 3)],
    ids=["tiny-3", "tiny-11", "busy-3"],
)
@pytest.mark.parametrize(
    "make_policy",
    [NoPolicy, RankPolicy, lambda: BanPolicy(-0.5)],
    ids=["none", "rank", "ban"],
)
def test_whole_run_equals_reference_round_body(monkeypatch, make_scenario, seed, make_policy):
    new = _run(make_scenario(seed), make_policy())
    monkeypatch.setattr(CommunitySimulator, "_round_body", ref_round_body)
    ref = _run(make_scenario(seed), make_policy())

    assert new.round_idx == ref.round_idx > 0
    assert new.stats.uploaded.sum() > 0
    for field in ("uploaded", "downloaded", "leech_time"):
        assert getattr(new.stats, field).tobytes() == getattr(ref.stats, field).tobytes()
    assert (
        new._choke_rng.generator.bit_generator.state
        == ref._choke_rng.generator.bit_generator.state
    )
    # The round asks the policy once per call (``policy.allowed``); the
    # reference warms the cache and then asks ``allows`` per candidate, as
    # the code it replaced did.  Under ban both evaluate the same scores —
    # misses and invalidations equal node by node — and the reference adds
    # one guaranteed hit per candidate.  Under rank the round evaluates
    # only the peers whose order it reads (outside the regular slots, when
    # the optimistic slot is re-picked); the reference, every candidate.
    # The totals are pinned in test_reputation_cache.py.
    policy_name = make_policy().name
    for pid, node in new.nodes.items():
        other = ref.nodes[pid]
        mine = (node.rep_cache_hits, node.rep_cache_misses, node.rep_cache_invalidations)
        theirs = (other.rep_cache_hits, other.rep_cache_misses, other.rep_cache_invalidations)
        if policy_name == "none":
            assert mine == theirs == (0, 0, 0)
        elif policy_name == "ban":
            assert mine[1:] == theirs[1:] and mine[0] <= theirs[0]
        else:
            assert all(a <= b for a, b in zip(mine, theirs))
