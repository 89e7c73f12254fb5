"""Unit tests for the analysis helpers."""

import math

import numpy as np
import pytest

from repro.analysis.ascii_plot import ascii_chart, render_table
from repro.analysis.stats import cdf, pearson_r, spearman_r, summarize
from repro.analysis.timeseries import bin_series, daily_means


class TestCdf:
    def test_basic(self):
        values, frac = cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(frac) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        values, frac = cdf([])
        assert values.size == 0 and frac.size == 0

    def test_duplicates(self):
        values, frac = cdf([1.0, 1.0])
        assert list(frac) == [0.5, 1.0]


class TestCorrelation:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert spearman_r([1, 2, 3], [5, 4, 3]) == pytest.approx(-1.0)

    def test_monotone_nonlinear_spearman_one(self):
        x = np.linspace(-5, 5, 20)
        y = np.arctan(x)
        assert spearman_r(x, y) == pytest.approx(1.0)
        assert pearson_r(x, y) < 1.0

    def test_degenerate_nan(self):
        assert math.isnan(pearson_r([1.0], [2.0]))
        assert math.isnan(pearson_r([1, 1, 1], [1, 2, 3]))
        assert math.isnan(spearman_r([1, 1, 1], [1, 2, 3]))

    @pytest.mark.parametrize(
        "x, y, want",
        [
            # untied
            ([0.3, -1.2, 2.5, 0.9, 1.1, -0.4, 3.3], [1.0, -0.7, 0.2, 2.9, 1.4, -2.0, 0.6],
             "0x1.924924924924bp-2"),
            # ties in both samples
            ([1, 2, 2, 3, 3, 3, 4], [2, 1, 2, 5, 3, 3, 0], "0x1.5f3aa673fa911p-4"),
            # n = 2: one ulp short of -1 / +1, as scipy's corrcoef step leaves it
            ([1, 2], [2, 1], "-0x1.fffffffffffffp-1"),
            ([1, 2], [1, 2], "0x1.fffffffffffffp-1"),
        ],
        ids=["untied", "tied", "n2-reversed", "n2-same"],
    )
    def test_spearman_pinned_bits(self, x, y, want):
        """Literals recorded from ``scipy.stats.spearmanr`` (1.17.1); the
        rank sums of samples this small are exact, so they do not depend
        on the BLAS underneath ``np.corrcoef``."""
        assert spearman_r(x, y).hex() == want

    def test_spearman_constant_or_nan_input_is_nan(self):
        assert math.isnan(spearman_r([2.5, 2.5, 2.5, 2.5], [1, 2, 3, 4]))
        assert math.isnan(spearman_r([1, 2, 3, 4], [7, 7, 7, 7]))
        assert math.isnan(spearman_r([1.0, float("nan"), 3.0], [3.0, 2.0, 1.0]))

    def test_spearman_equals_scipy_bit_for_bit(self):
        """The numpy-only implementation is scipy's, step for step."""
        sps = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(20)
        for trial in range(300):
            n = int(rng.integers(2, 120))
            if trial % 3 == 0:  # untied
                x, y = rng.normal(size=n), rng.normal(size=n)
            elif trial % 3 == 1:  # heavily tied
                x = rng.integers(0, 4, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)
            else:  # correlated, ties on one side
                x = rng.normal(size=n)
                y = np.round(x + rng.normal(size=n), 1)
            if np.std(x) == 0 or np.std(y) == 0:
                continue
            assert spearman_r(x, y) == float(sps.spearmanr(x, y)[0])


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_drops_nans(self):
        s = summarize([1.0, float("nan"), 3.0])
        assert s.n == 2
        assert s.mean == 2.0

    def test_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)


class TestBinSeries:
    def test_averages_within_bins(self):
        times = [0.0, 1.0, 10.0, 11.0]
        values = [1.0, 3.0, 10.0, 20.0]
        mids, means = bin_series(times, values, bin_width=10.0)
        assert means[0] == pytest.approx(2.0)
        assert means[1] == pytest.approx(15.0)
        assert mids[0] == 5.0

    def test_empty_bins_nan(self):
        mids, means = bin_series([0.0, 25.0], [1.0, 2.0], 10.0)
        assert np.isnan(means[1])

    def test_nan_values_skipped(self):
        _, means = bin_series([0.0, 1.0], [float("nan"), 4.0], 10.0)
        assert means[0] == 4.0

    def test_t_max_extends_axis(self):
        mids, means = bin_series([0.0], [1.0], 10.0, t_max=50.0)
        assert len(mids) == 5

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            bin_series([0.0], [1.0], 0.0)

    def test_empty_input(self):
        mids, means = bin_series([], [], 10.0)
        assert mids.size == 0

    def test_daily_means_day_axis(self):
        days, means = daily_means([0.0, 86400.0 * 1.5], [1.0, 2.0])
        assert days[0] == 0.5
        assert days[1] == 1.5


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table(["a", "bb"], [[1.0, "x"], [2.5, "yy"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.000" in out and "yy" in out

    def test_nan_prints_dash(self):
        out = render_table(["v"], [[float("nan")]])
        assert "-" in out.splitlines()[-1]

    def test_custom_float_format(self):
        out = render_table(["v"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.234" not in out


class TestAsciiChart:
    def test_renders_series_markers(self):
        out = ascii_chart({"up": [0, 1, 2, 3], "down": [3, 2, 1, 0]})
        assert "*" in out and "o" in out
        assert "up" in out and "down" in out

    def test_empty_series(self):
        assert ascii_chart({"x": [float("nan")]}) == "(no data)"

    def test_constant_series_no_crash(self):
        out = ascii_chart({"flat": [5.0, 5.0, 5.0]})
        assert "flat" in out

    def test_y_label(self):
        out = ascii_chart({"s": [1, 2]}, y_label="speed")
        assert out.splitlines()[0] == "speed"
