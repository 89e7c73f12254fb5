"""Time-series binning helpers."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["bin_series"]


def bin_series(
    times: Sequence[float],
    values: Sequence[float],
    bin_width: float,
    t_max: float = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Average irregular samples into fixed-width time bins.

    Returns ``(bin_midpoints, bin_means)``; empty bins are NaN.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if times.size == 0:
        return np.empty(0), np.empty(0)
    horizon = float(t_max) if t_max is not None else float(times.max()) + 1e-9
    n_bins = max(1, int(np.ceil(horizon / bin_width)))
    idx = np.clip((times / bin_width).astype(int), 0, n_bins - 1)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    valid = ~np.isnan(values)
    np.add.at(sums, idx[valid], values[valid])
    np.add.at(counts, idx[valid], 1)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    mids = (np.arange(n_bins) + 0.5) * bin_width
    return mids, means
