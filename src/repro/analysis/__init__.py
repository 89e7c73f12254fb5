"""Analysis and reporting utilities.

Small, dependency-light helpers shared by the experiment drivers:
time-series binning, CDFs, correlation statistics, and terminal (ASCII)
rendering of the series the paper plots.
"""

from repro.analysis.stats import cdf, pearson_r, spearman_r
from repro.analysis.ascii_plot import ascii_chart, render_table
from repro.analysis.timeseries import bin_series

__all__ = [
    "cdf",
    "pearson_r",
    "spearman_r",
    "ascii_chart",
    "render_table",
    "bin_series",
]

# Exporters live in repro.analysis.export; imported lazily by the CLI to
# avoid a circular import (export depends on the experiments result types).
