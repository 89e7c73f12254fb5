"""Unit tests for the peer-sampling services."""

import pytest

from repro.pss.buddycast import BuddyCastPSS
from repro.sim.rng import RngRegistry
from tests.model import OraclePSS


def make_pss(online, view_size=10, seed=3, kind="buddycast"):
    rng = RngRegistry(seed).stream("pss")
    if kind == "oracle":
        return OraclePSS(is_online=lambda p: p in online, rng=rng)
    return BuddyCastPSS(is_online=lambda p: p in online, rng=rng, view_size=view_size)


class TestBuddyCast:
    def test_register_bootstraps_views(self):
        online = set(range(10))
        pss = make_pss(online)
        for p in range(10):
            pss.register(p)
        # Later peers got bootstrap contacts.
        assert len(pss.view_of(9)) >= 1

    def test_register_idempotent(self):
        pss = make_pss({0, 1})
        pss.register(0)
        view = pss.view_of(0)
        pss.register(0)
        assert pss.view_of(0) == view

    def test_sample_returns_online_contact(self):
        online = set(range(5))
        pss = make_pss(online)
        for p in range(5):
            pss.register(p)
        for p in range(5):
            s = pss.sample(p)
            if s is not None:
                assert s in online and s != p

    def test_sample_never_returns_offline(self):
        online = {0, 1}
        pss = make_pss(online)
        for p in range(5):
            pss.register(p)
        for _ in range(50):
            s = pss.sample(0)
            assert s in (None, 1)

    def test_sample_unknown_peer_none(self):
        pss = make_pss(set())
        assert pss.sample(99) is None

    def test_tick_spreads_views(self):
        online = set(range(20))
        pss = make_pss(online, view_size=20)
        for p in range(20):
            pss.register(p)
        for t in range(20):
            for p in range(20):
                pss.tick(p, float(t))
        # After many exchanges every view should be well populated.
        sizes = [len(pss.view_of(p)) for p in range(20)]
        assert min(sizes) >= 5
        assert pss.exchanges > 0

    def test_view_bounded(self):
        online = set(range(50))
        pss = make_pss(online, view_size=8)
        for p in range(50):
            pss.register(p)
        for t in range(10):
            for p in range(50):
                pss.tick(p, float(t))
        assert all(len(pss.view_of(p)) <= 8 for p in range(50))

    def test_offline_peer_does_not_tick(self):
        online = {1, 2}
        pss = make_pss(online)
        for p in range(3):
            pss.register(p)
        before = pss.exchanges
        pss.tick(0, 1.0)  # 0 is offline
        assert pss.exchanges == before

    def test_invalid_view_size(self):
        with pytest.raises(ValueError):
            make_pss(set(), view_size=0)

    def test_negative_bootstrap_size_rejected_at_construction(self):
        rng = RngRegistry(3).stream("pss")
        with pytest.raises(ValueError, match="bootstrap_size"):
            BuddyCastPSS(is_online=lambda p: True, rng=rng, bootstrap_size=-1)

    @pytest.mark.parametrize("view_size", [1, 2, 4])
    def test_bootstrap_respects_a_view_size_below_bootstrap_size(self, view_size):
        # Bootstrap contacts go through the same bounded insert as a
        # merge: a newcomer's view never starts above view_size (it
        # could never shrink back, since a merge evicts one per newcomer).
        pss = make_pss(set(range(10)), view_size=view_size)
        for p in range(10):
            pss.register(p, now=float(p))
            assert all(len(pss.view_of(q)) <= view_size for q in range(p + 1))
        assert len(pss.view_of(9)) == view_size

    def test_eviction_prefers_stale_entries(self):
        online = set(range(5))
        pss = make_pss(online, view_size=2)
        pss.register(0)
        pss._insert(0, "fresh", freshness=100.0)
        pss._insert(0, "stale", freshness=1.0)
        pss._insert(0, "newer", freshness=50.0)
        view = pss.view_of(0)
        assert "fresh" in view
        assert "stale" not in view

    def test_eviction_never_discards_the_inserted_contact(self):
        # A contact staler than every resident entry must still land in
        # the view (at the expense of the stalest resident) — evicting
        # the newcomer itself would silently freeze view membership.
        pss = make_pss(set(range(5)), view_size=2)
        pss.register(0)
        pss._insert(0, "a", freshness=100.0)
        pss._insert(0, "b", freshness=50.0)
        pss._insert(0, "old-news", freshness=1.0)
        view = pss.view_of(0)
        assert "old-news" in view
        assert "b" not in view
        assert len(view) == 2


class TestChurnRejoin:
    def test_forget_drops_own_view_only(self):
        online = set(range(6))
        pss = make_pss(online)
        for p in range(6):
            pss.register(p)
        known_by_others = any(1 in pss.view_of(p) for p in range(6) if p != 1)
        pss.forget(1)
        assert pss.view_of(1) == []
        # Others still know the crashed peer.
        assert known_by_others == any(
            1 in pss.view_of(p) for p in range(6) if p != 1
        )

    def test_rejoin_bootstraps_at_current_time(self):
        online = set(range(8))
        pss = make_pss(online)
        for p in range(8):
            pss.register(p)
        for t in range(5):
            for p in range(8):
                pss.tick(p, float(t))
        pss.forget(3)
        pss.register(3, now=1000.0)
        view = pss._views[3]
        assert len(view) >= 1
        # Every bootstrap contact carries the rejoin time, so peer 3's
        # new entries (and 3 in its contacts' views) are the freshest,
        # not the first eviction candidates.
        assert all(fresh == 1000.0 for fresh in view.values())
        assert 3 not in view  # never bootstraps itself
        for contact in view:
            assert pss._views[contact][3] == 1000.0

    def test_rejoin_can_gossip_again(self):
        online = set(range(8))
        pss = make_pss(online)
        for p in range(8):
            pss.register(p)
        pss.forget(3)
        assert pss.sample(3) is None
        pss.register(3, now=50.0)
        before = pss.exchanges
        for t in range(5):
            pss.tick(3, 50.0 + t)
        assert pss.exchanges > before


class TestOracle:
    def test_samples_any_online_peer(self):
        online = set(range(10))
        pss = make_pss(online, kind="oracle")
        for p in range(10):
            pss.register(p)
        seen = {pss.sample(0) for _ in range(200)}
        assert seen == set(range(1, 10))

    def test_none_when_alone(self):
        pss = make_pss({0}, kind="oracle")
        pss.register(0)
        assert pss.sample(0) is None

    def test_view_of_excludes_self(self):
        pss = make_pss({0, 1, 2}, kind="oracle")
        for p in range(3):
            pss.register(p)
        assert set(pss.view_of(1)) == {0, 2}

    def test_tick_is_noop(self):
        pss = make_pss({0}, kind="oracle")
        pss.register(0)
        pss.tick(0, 1.0)  # must not raise
