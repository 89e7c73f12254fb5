"""System ≡ model: the BuddyCast view merge and sampling, forged timestamps,
the live set and whole runs.

Each test drives the system and the naive model in ``tests/model.py`` with
one input and compares everything either shows, floats by ``==``: the model
adds in the order the spec states, so equal means the same additions in the
same order.  The per-path properties live beside the code they pin:
``test_gossip_hot_path.py`` (selection, wire records, ingest),
``test_two_hop_closed_form.py`` (every 2-hop route) and
``test_bt_round_hot_path.py`` (rosters, twin rounds).
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.simulator import CommunitySimulator
from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy, NoPolicy, RankPolicy
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.faults import FaultConfig
from repro.obs.provenance import ProvenanceRecorder
from repro.pss.buddycast import BuddyCastPSS
from repro.sim.rng import RngRegistry
from tests import model
from tests.conftest import snapshot

# Views of up to 9 entries against bounds of 1..6: under, at and over
# ``view_size``; contacts include both exchange partners (0 and 1).
freshness = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 50.0])
views = st.dictionaries(st.integers(0, 11), freshness, max_size=9)


@settings(max_examples=200, deadline=None)
@given(views, views, st.integers(1, 6), st.sampled_from([0.0, 2.0, 60.0]))
def test_view_merge_equals_model(va, vb, view_size, now):
    pss = BuddyCastPSS(lambda p: True, RngRegistry(3).stream("pss"), view_size=view_size)
    pss._views, want = {0: dict(va), 1: dict(vb)}, {0: dict(va), 1: dict(vb)}
    # Two rounds: the second starts from views the first one left at the bound.
    for t in (now, now + 1.0):
        pss._exchange(0, 1, t)
        model.exchange(want, view_size, 0, 1, t)
        assert [list(v.items()) for v in pss._views.values()] == [
            list(v.items()) for v in want.values()
        ]
    assert pss.exchanges == 2


@settings(max_examples=200, deadline=None)
@given(views, st.sets(st.integers(0, 11)))
def test_sample_draws_from_live_contacts_in_view_order(view, live):
    """Views here may hold their owner (0); ``sample`` never returns it and
    draws by position from the model's live list, with the same stream."""
    pss = BuddyCastPSS(live.__contains__, RngRegistry(3).stream("pss"))
    pss._views[0] = dict(view)
    pool, rng = model.live_contacts(view, 0, live.__contains__), RngRegistry(3).stream("pss")
    for _ in range(3):
        assert pss.sample(0) == (rng.choice(pool) if pool else None)


@pytest.mark.parametrize("forged_at", [math.inf, 1e9])
def test_forged_timestamp_does_not_shadow_honest_messages(forged_at):
    for recorder in (None, ProvenanceRecorder()):
        node = BarterCastNode("me", provenance=recorder)
        claim = lambda total: (HistoryRecord("c0", total, 0.0),)
        assert node.receive_message(BarterCastMessage("r0", 1.0, claim(3.0)), now=1.0) == 1
        assert node.receive_message(BarterCastMessage("r0", forged_at, claim(5.0)), now=2.0) == 0
        assert model.claims(node.shared)["r0", "r0", "c0"] == 3.0
        assert node.receive_message(BarterCastMessage("r0", 3.0, claim(9.0)), now=3.0) == 1
        assert model.claims(node.shared)["r0", "r0", "c0"] == node.graph.capacity("r0", "c0") == 9.0


@pytest.mark.parametrize(
    "make_scenario, seed",
    [(ScenarioConfig.tiny, 3), (ScenarioConfig.tiny, 11), (model.busy, 3)],
    ids=["tiny-3", "tiny-11", "busy-3"],
)
@pytest.mark.parametrize(
    "make_policy", [NoPolicy, RankPolicy, lambda: BanPolicy(-0.5)], ids=["none", "rank", "ban"]
)
def test_whole_run_equals_model(monkeypatch, make_scenario, seed, make_policy):
    """Bytes, the choker's RNG state and every node's cache counters, by
    ``==`` (``test_reputation_cache.py`` pins their totals)."""
    runs = []
    for round_body in (CommunitySimulator._round_body, model.bt_round):
        monkeypatch.setattr(CommunitySimulator, "_round_body", round_body)
        runs.append(build_simulation(make_scenario(seed), policy=make_policy()))
        runs[-1].run()
    assert runs[0].round_idx > 0 and runs[0].stats.uploaded.sum() > 0
    assert snapshot(runs[0]) == snapshot(runs[1])
    caches = {(n.rep_cache_hits, n.rep_cache_misses, n.rep_cache_invalidations) for n in runs[0].nodes.values()}
    assert make_policy is not NoPolicy or caches == {(0, 0, 0)}  # nothing asks for a reputation


def test_live_set_equals_two_set_rule():
    """At every engine event of a churned run, the simulator's live set —
    what ``is_online``, the PSS and the gossip round read — is the model's
    rule: in a session and not churned down.  Eight-hour outages make every
    transition happen: crashes in and out of sessions, rejoins in and out
    of them, and sessions that start or end while their peer is down."""
    faults = FaultConfig(churn_rate=0.5, churn_downtime=8 * 3600.0)
    sim = build_simulation(ScenarioConfig.tiny().with_faults(faults))
    engine, peers, cases = sim.engine, sorted(sim.nodes), Counter()

    def checked(callback):
        def fire():
            online, down = set(sim.online), set(sim.churn.down)
            callback()
            want = [model.is_live(sim, p) for p in peers]
            assert [sim.is_online(p) for p in peers] == want
            assert [sim.pss._is_online(p) for p in peers] == want
            now_online, now_down = sim.online, sim.churn.down
            cases["crash in session"] += len((now_down - down) & now_online)
            cases["rejoin in session"] += len((down - now_down) & now_online)
            cases["rejoin out of session"] += len((down - now_down) - now_online)
            cases["session starts while down"] += len((now_online - online) & now_down)
            cases["session ends while down"] += len((online - now_online) & now_down)
            cases["session ends mid-run"] += len(online - now_online) * (engine.now < sim.trace.duration)
            cases["events"] += 1
        return fire

    engine._queue[:] = [(t, seq, checked(cb), label) for t, seq, cb, label in engine._queue]
    schedule_at = engine.schedule_at
    engine.schedule_at = lambda t, cb, label="": schedule_at(t, checked(cb), label)
    sim.run()
    assert cases["events"] == engine.events_fired
    assert min(cases.values()) > 0, cases
