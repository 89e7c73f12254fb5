"""Tests for the scalability experiment (small sizes for speed)."""

import pytest

from repro.experiments.scalability import run_scalability


class TestScalability:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scalability(sizes=(500, 2000), degree=8, queries=50, seed=3)

    def test_points_match_sizes(self, result):
        assert [p.num_peers for p in result.points] == [500, 2000]

    def test_edges_grow_with_size(self, result):
        assert result.points[1].num_edges > result.points[0].num_edges

    def test_latencies_positive(self, result):
        for p in result.points:
            assert p.query_us > 0
            assert p.ingest_us > 0

    def test_outside_share_is_the_share_the_kernel_skips(self, result):
        """Uniform targets over a growing view land outside the node's
        reach set more and more; every point reports a share."""
        shares = [p.outside_share for p in result.points]
        assert all(0.0 <= share <= 1.0 for share in shares)
        assert shares[-1] > 0.0

    def test_growth_factor_defined(self, result):
        assert result.query_growth_factor() > 0

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            run_scalability(sizes=(2000, 500))
        with pytest.raises(ValueError):
            run_scalability(sizes=())

    def test_single_size_growth_factor_one(self):
        result = run_scalability(sizes=(300,), degree=5, queries=20, seed=1)
        assert result.query_growth_factor() == 1.0
