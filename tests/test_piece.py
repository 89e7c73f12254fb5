"""Unit and property tests for bitfields and rarest-first selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.piece import Bitfield, pick_rarest


class TestBitfield:
    def test_empty_start(self):
        b = Bitfield(10)
        assert b.num_have == 0
        assert not b.is_complete

    def test_complete_start(self):
        b = Bitfield(10, complete=True)
        assert b.num_have == 10
        assert b.is_complete

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Bitfield(0)

    def test_add(self):
        b = Bitfield(5)
        assert b.add(2) is True
        assert b.add(2) is False  # duplicate
        assert b.num_have == 1

    def test_add_many_counts_new(self):
        b = Bitfield(10)
        b.add(3)
        new = b.add_many(np.array([3, 4, 5]))
        assert new == 2
        assert b.num_have == 3

    def test_add_many_empty(self):
        b = Bitfield(10)
        assert b.add_many(np.empty(0, dtype=np.int64)) == 0

    def test_add_many_counts_a_repeated_index_once(self):
        # Regression: [0, 0] used to add 2 to num_have for one piece, which
        # could report a 2-piece file complete with one piece missing.
        b = Bitfield(2)
        assert b.add_many(np.array([0, 0])) == 1
        assert b.num_have == 1
        assert not b.is_complete
        assert b.add_many(np.array([0, 1, 1])) == 1
        assert b.is_complete

    def test_completion(self):
        b = Bitfield(3)
        b.add_many(np.array([0, 1, 2]))
        assert b.is_complete
        assert b.num_have == 3

class TestPickRarest:
    def test_picks_rarest_first(self):
        avail = np.array([5, 1, 3, 2], dtype=np.int32)
        candidates = np.ones(4, dtype=bool)
        picked = pick_rarest(avail, candidates, 2)
        assert list(picked) == [1, 3]

    def test_respects_uploader_have(self):
        avail = np.array([1, 1, 1, 1], dtype=np.int32)
        uploader = np.array([True, False, True, False])
        receiver = np.zeros(4, dtype=bool)
        picked = pick_rarest(avail, uploader & ~receiver, 4)
        assert set(picked) == {0, 2}

    def test_excludes_received_and_missing_at_uploader(self):
        avail = np.ones(4, dtype=np.int32)
        receiver = np.array([True, False, False, False])
        uploader = np.array([True, False, True, True])
        picked = pick_rarest(avail, uploader & ~receiver, 4)
        assert set(picked) == {2, 3}

    def test_k_zero(self):
        avail = np.ones(4, dtype=np.int32)
        assert pick_rarest(avail, np.ones(4, dtype=bool), 0).size == 0

    def test_no_candidates(self):
        avail = np.ones(4, dtype=np.int32)
        assert pick_rarest(avail, np.zeros(4, dtype=bool), 2).size == 0

    def test_k_exceeds_candidates(self):
        avail = np.ones(4, dtype=np.int32)
        candidates = np.array([False, False, True, True])
        picked = pick_rarest(avail, candidates, 10)
        assert set(picked) == {2, 3}

    def test_result_sorted_by_rarity(self):
        avail = np.array([9, 2, 7, 1, 5], dtype=np.int32)
        picked = pick_rarest(avail, np.ones(5, dtype=bool), 3)
        assert list(picked) == [3, 1, 5 - 1]  # indices 3 (1), 1 (2), 4 (5)

    def test_mask_is_not_modified(self):
        avail = np.array([3, 1, 2], dtype=np.int32)
        candidates = np.array([True, True, False])
        pick_rarest(avail, candidates, 1)
        assert list(candidates) == [True, True, False]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pick_rarest_invariants(n, k, seed):
    rng = np.random.default_rng(seed)
    avail = rng.integers(0, 20, size=n).astype(np.int32)
    uploader = rng.random(n) < 0.7
    receiver = rng.random(n) < 0.3
    picked = pick_rarest(avail, uploader & ~receiver, k)
    # No duplicates; only valid candidates; at most k.
    assert len(set(picked.tolist())) == picked.size
    assert picked.size <= max(0, k)
    for p in picked:
        assert uploader[p] and not receiver[p]
    # The picked set contains the k rarest candidates (by availability).
    candidates = np.flatnonzero(uploader & ~receiver)
    if k > 0 and candidates.size:
        picked_avail = sorted(avail[picked].tolist())
        best = sorted(avail[candidates].tolist())[: picked.size]
        assert picked_avail == best
