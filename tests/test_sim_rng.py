"""Unit tests for seeded RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, RngStream


class TestRngRegistry:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RngRegistry(seed)

    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(99).stream("gossip")
        b = RngRegistry(99).stream("gossip")
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_order_of_creation_does_not_matter(self):
        r1 = RngRegistry(5)
        r1.stream("x")
        y1 = [r1.stream("y").uniform() for _ in range(3)]
        r2 = RngRegistry(5)
        y2 = [r2.stream("y").uniform() for _ in range(3)]  # y first this time
        assert y1 == y2

    def test_different_names_differ(self):
        reg = RngRegistry(1)
        a = [reg.stream("a").uniform() for _ in range(5)]
        b = [reg.stream("b").uniform() for _ in range(5)]
        assert a != b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("s")
        b = RngRegistry(2).stream("s")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_spawn_indexes_streams(self):
        reg = RngRegistry(1)
        assert reg.spawn("peer", 1) is reg.stream("peer#1")
        assert reg.spawn("peer", 1) is not reg.spawn("peer", 2)


class TestRngStream:
    @pytest.fixture
    def stream(self):
        return RngRegistry(42).stream("test")

    def test_random_in_unit_interval(self, stream):
        for _ in range(100):
            assert 0.0 <= stream.uniform() < 1.0

    def test_uniform_bounds(self, stream):
        for _ in range(100):
            v = stream.uniform(2.0, 5.0)
            assert 2.0 <= v < 5.0

    def test_bernoulli_extremes(self, stream):
        assert all(stream.bernoulli(1.0) for _ in range(20))
        assert not any(stream.bernoulli(0.0) for _ in range(20))

    def test_choice_single_element(self, stream):
        assert stream.choice(["only"]) == "only"

    def test_choice_empty_raises(self, stream):
        with pytest.raises(ValueError):
            stream.choice([])

    def test_choice_covers_all_elements(self, stream):
        seen = {stream.choice("abc") for _ in range(200)}
        assert seen == {"a", "b", "c"}

    def test_sample_without_replacement(self, stream):
        out = stream.sample(list(range(10)), 5)
        assert len(out) == 5
        assert len(set(out)) == 5

    def test_sample_clamps_k(self, stream):
        out = stream.sample([1, 2, 3], 10)
        assert sorted(out) == [1, 2, 3]

    def test_sample_zero(self, stream):
        assert stream.sample([1, 2, 3], 0) == []

    def test_shuffled_preserves_elements(self, stream):
        original = list(range(20))
        out = stream.shuffled(original)
        assert sorted(out) == original
        assert original == list(range(20))  # input untouched

    def test_exponential_positive(self, stream):
        assert all(stream.exponential(10.0) > 0 for _ in range(50))

    def test_exponential_mean_roughly_right(self, stream):
        vals = [stream.exponential(10.0) for _ in range(3000)]
        assert 9.0 < np.mean(vals) < 11.0

    def test_lognormal_positive(self, stream):
        assert all(stream.lognormal(0.0, 1.0) > 0 for _ in range(50))

    def test_generator_exposed(self, stream):
        assert isinstance(stream.generator, np.random.Generator)
