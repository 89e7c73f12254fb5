"""Unit and property tests for the reputation metric."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reputation import DEFAULT_UNIT_BYTES, MB, ReputationMetric
from repro.graph.transfer_graph import TransferGraph
from tests.conftest import graph_of
from tests.model import bounded_ford_fulkerson, ford_fulkerson


class TestScaling:
    def test_zero_diff_is_zero(self):
        assert ReputationMetric().scale(0.0) == 0.0

    def test_range_open_interval(self):
        m = ReputationMetric()
        assert -1.0 < m.scale(-1e18) < -0.999
        assert 0.999 < m.scale(1e18) < 1.0

    def test_antisymmetric(self):
        m = ReputationMetric()
        for diff in (1.0, 1e6, 1e9, 123456.0):
            assert m.scale(diff) == pytest.approx(-m.scale(-diff))

    def test_monotone(self):
        m = ReputationMetric()
        values = [m.scale(x * MB) for x in (-1000, -100, -1, 0, 1, 100, 1000)]
        assert values == sorted(values)

    def test_paper_knee_at_100mb(self):
        # "0 vs 100 MB more significant than 1000 vs 1100 MB"
        m = ReputationMetric()
        early = m.scale(100 * MB) - m.scale(0.0)
        late = m.scale(1100 * MB) - m.scale(1000 * MB)
        assert early > 10 * late

    def test_unit_at_100mb_gives_half(self):
        m = ReputationMetric()
        assert m.scale(DEFAULT_UNIT_BYTES) == pytest.approx(0.5)

    def test_linear_scaling(self):
        m = ReputationMetric(scaling="linear", linear_range=10.0, unit_bytes=MB)
        assert m.scale(5 * MB) == pytest.approx(0.5)
        assert m.scale(20 * MB) == 1.0  # clipped
        assert m.scale(-20 * MB) == -1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReputationMetric(unit_bytes=0.0)
        with pytest.raises(ValueError):
            ReputationMetric(scaling="bogus")
        with pytest.raises(ValueError):
            ReputationMetric(linear_range=0.0)
        # Non-finite scales: NaN made every score NaN, inf made it 0.0.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ReputationMetric(unit_bytes=bad)
            with pytest.raises(ValueError):
                ReputationMetric(scaling="linear", linear_range=bad)


class TestReputation:
    def test_direct_uploader_positive(self):
        g = graph_of([("j", "i", 500 * MB)])
        m = ReputationMetric()
        assert m.reputation(g, "i", "j") > 0.5

    def test_direct_consumer_negative(self):
        g = graph_of([("i", "j", 500 * MB)])
        m = ReputationMetric()
        assert m.reputation(g, "i", "j") < -0.5

    def test_stranger_zero(self):
        g = graph_of([("a", "b", 500 * MB)])
        g.add_node("i")
        g.add_node("j")
        assert ReputationMetric().reputation(g, "i", "j") == 0.0

    def test_pairwise_antisymmetry(self):
        g = graph_of([("i", "j", 100 * MB), ("j", "i", 30 * MB)])
        m = ReputationMetric()
        assert m.reputation(g, "i", "j") == pytest.approx(-m.reputation(g, "j", "i"))

    def test_self_reputation_rejected(self):
        g = TransferGraph()
        g.add_node("i")
        with pytest.raises(ValueError):
            ReputationMetric().reputation(g, "i", "i")

    def test_two_hop_indirect_service_counts(self):
        # j uploaded to v, v uploaded to i: i should see j positively,
        # bounded by the smaller leg.
        g = graph_of([("j", "v", 300 * MB), ("v", "i", 120 * MB)])
        m = ReputationMetric()
        rep = m.reputation(g, "i", "j")
        assert rep == pytest.approx(m.scale(120 * MB))

    def test_incorrect_information_bounded_by_direct_edges(self):
        # A liar claims a huge upload j->v, but v only gave i 10 MB;
        # j's reputation at i cannot exceed what 10 MB of real service buys.
        g = graph_of([("j", "v", 1e15), ("v", "i", 10 * MB)])
        m = ReputationMetric()
        assert m.reputation(g, "i", "j") <= m.scale(10 * MB) + 1e-12

    def test_kernels_agree_on_two_hop_graph(self):
        """Equation 1 over the paper's Algorithm 1 bounded to two hops."""
        g = graph_of(
            [("j", "v", 50 * MB), ("v", "i", 70 * MB), ("j", "i", 5 * MB), ("i", "j", 2 * MB)]
        )
        m = ReputationMetric()
        inflow = bounded_ford_fulkerson(g, "j", "i", max_hops=2).value
        outflow = bounded_ford_fulkerson(g, "i", "j", max_hops=2).value
        assert m.reputation(g, "i", "j") == pytest.approx(m.scale(inflow - outflow))

    def test_exact_kernel_sees_longer_paths(self):
        """A 3-hop chain carries exact flow, and the metric regards paths
        of at most two edges only (PAPER.md §1)."""
        g = graph_of(
            [("j", "a", 100 * MB), ("a", "b", 100 * MB), ("b", "i", 100 * MB)]
        )
        assert ford_fulkerson(g, "j", "i").value == 100 * MB
        assert ReputationMetric().reputation(g, "i", "j") == 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1e15, max_value=1e15, allow_nan=False))
def test_scale_bounded_and_antisymmetric(diff):
    m = ReputationMetric()
    v = m.scale(diff)
    assert -1.0 < v < 1.0
    assert v == pytest.approx(-m.scale(-diff), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
)
def test_reputation_sign_matches_flow_difference(up, down):
    g = TransferGraph()
    g.add_node("i")
    g.add_node("j")
    if up > 0:
        g.set_transfer("j", "i", up)
    if down > 0:
        g.set_transfer("i", "j", down)
    rep = ReputationMetric().reputation(g, "i", "j")
    assert rep == pytest.approx(ReputationMetric().scale(up - down))
