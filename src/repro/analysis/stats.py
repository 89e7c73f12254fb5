"""Statistical helpers: CDFs, correlations, summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["cdf", "pearson_r", "spearman_r", "summarize", "Summary"]


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns ``(sorted_values, cumulative_fraction)``.

    The fraction at index k is ``(k + 1) / n`` — the fraction of samples
    less than or equal to ``sorted_values[k]``.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        return arr, arr
    frac = np.arange(1, arr.size + 1) / arr.size
    return arr, frac


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient (NaN for degenerate inputs)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.std(x) == 0 or np.std(y) == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks from 1; tied values share the mean of the ranks they span."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    # Tie group g covers sorted positions [bounds[g], bounds[g + 1]).
    bounds = np.r_[np.flatnonzero(first), a.size]
    group = np.cumsum(first) - 1
    ranks = np.empty(a.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (NaN for degenerate inputs).

    The natural consistency measure for Figure 1(b): the paper's claim is
    that reputation *orders* peers like net contribution does, not that
    the relationship is linear (arctan is deliberately nonlinear).

    Pearson correlation of the average ranks, computed the way
    ``scipy.stats.spearmanr`` computes it, so the result is the same bits
    (pinned by ``tests/test_analysis.py``) without importing scipy.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.std(x) == 0 or np.std(y) == 0:
        return float("nan")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass
class Summary:
    """Five-number-style summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` (NaNs are dropped)."""
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan)
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )
