"""The maxflow reputation metric.

Equation (1) of the paper::

    R_i(j) = arctan(maxflow(j, i) - maxflow(i, j)) / (pi / 2)

yielding a subjective reputation in (-1, 1): positive when *j* has (directly
or through at most one intermediary) provided more service toward *i* than
it consumed, negative in the opposite case, near zero for strangers and
newcomers.

Units
-----
The paper motivates arctan with "the difference between 0 and 100 MB is
more significant than the difference between 1000 MB and 1100 MB".  That
places the knee of the arctan near 100 MB: with ``unit_bytes = 100 MiB``
the metric maps 0 → 0.0, 100 MB → 0.5, 1000 MB → 0.94, 1100 MB → 0.94 —
exactly the paper's qualitative shape.  Applied to raw bytes the metric
would saturate at ±1 after a single piece and every ban threshold δ would
behave identically, erasing the Figure 2(c) differences the paper reports.
:class:`ReputationMetric` therefore exposes ``unit_bytes`` (default
``DEFAULT_UNIT_BYTES`` = 100 MiB) and divides the maxflow difference by it
before the arctan.

Kernel
------
Both flows come from the closed-form 2-hop maxflow
(:func:`~repro.graph.maxflow.maxflow_two_hop_pair`), the computation the
deployed BarterCast runs: the paper regards paths of at most two edges.
The Ford–Fulkerson kernels of :mod:`repro.graph.maxflow` are the
paper's Algorithm 1, which the tests and the path-length ablation bench
call directly.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Literal

from repro.graph.maxflow import maxflow_two_hop_batch, maxflow_two_hop_pair
from repro.graph.transfer_graph import TransferGraph

__all__ = ["MB", "DEFAULT_UNIT_BYTES", "ReputationMetric"]

PeerId = Hashable

#: One mebibyte in bytes.
MB = float(1024 * 1024)

#: Default scale of the arctan argument: 100 MiB (see module docstring).
DEFAULT_UNIT_BYTES = 100.0 * MB

_HALF_PI = math.pi / 2.0


class ReputationMetric:
    """Computes subjective reputations over a transfer graph.

    Parameters
    ----------
    unit_bytes:
        Scale divisor applied to the maxflow difference before the arctan
        (default 100 MiB; see module docstring).
    scaling:
        ``'arctan'`` (the paper's Equation 1) or ``'linear'``: a clipped
        linear ramp ``clip(diff / linear_range, -1, 1)`` used by the metric
        ablation to demonstrate why arctan is the better choice (a linear
        metric either saturates for newcomers or dwarfs modest contributors,
        depending on ``linear_range``).
    linear_range:
        Full-scale range (in units of ``unit_bytes``) of the linear ramp.

    Examples
    --------
    >>> g = TransferGraph()
    >>> g.set_transfer("j", "i", 100 * MB)
    >>> metric = ReputationMetric()
    >>> abs(metric.reputation(g, "i", "j") - 0.5) < 0.01
    True
    >>> metric.reputation(g, "j", "i") < 0
    True
    """

    def __init__(
        self,
        unit_bytes: float = DEFAULT_UNIT_BYTES,
        scaling: Literal["arctan", "linear"] = "arctan",
        linear_range: float = 1000.0,
    ) -> None:
        # Chained comparisons are False for NaN, so it is rejected too.
        if not 0 < unit_bytes < math.inf:
            raise ValueError(
                f"unit_bytes must be positive and finite, got {unit_bytes}"
            )
        if scaling not in ("arctan", "linear"):
            raise ValueError(f"unknown scaling {scaling!r}")
        if not 0 < linear_range < math.inf:
            raise ValueError(
                f"linear_range must be positive and finite, got {linear_range}"
            )
        self.unit_bytes = float(unit_bytes)
        self.scaling = scaling
        self.linear_range = float(linear_range)

    # ------------------------------------------------------------------
    def reputation(self, graph: TransferGraph, i: PeerId, j: PeerId) -> float:
        """The subjective reputation ``R_i(j)`` of peer ``j`` at peer ``i``.

        ``i`` is the evaluating peer (the maxflow sink for service received),
        ``j`` the evaluated peer.
        """
        if i == j:
            raise ValueError("a peer has no reputation at itself")
        inflow, outflow = maxflow_two_hop_pair(graph, i, j)
        return self.scale(inflow - outflow)

    def reputation_batch(
        self, graph: TransferGraph, i: PeerId, targets: Iterable[PeerId]
    ) -> Dict[PeerId, float]:
        """``R_i(j)`` for every target ``j`` in one pass.

        Routes through :func:`~repro.graph.maxflow.maxflow_two_hop_batch`,
        hoisting the owner's neighbourhood lookups out of the per-target
        loop; results are bit-identical to per-target :meth:`reputation`
        calls.  ``i`` itself and duplicate targets are skipped.
        """
        scale = self.scale
        return {
            j: scale(inflow - outflow)
            for j, (inflow, outflow) in maxflow_two_hop_batch(graph, i, targets).items()
        }

    @property
    def slope(self) -> float:
        """The most :meth:`scale` moves per byte of difference: arctan is
        steepest at 0, ``(2/π) / unit_bytes``; the clipped ramp's slope
        is ``1 / (unit_bytes × linear_range)``."""
        if self.scaling == "arctan":
            return 1.0 / (_HALF_PI * self.unit_bytes)
        return 1.0 / (self.unit_bytes * self.linear_range)

    def scale(self, diff_bytes: float) -> float:
        """Map a byte-valued maxflow difference into (-1, 1)."""
        x = diff_bytes / self.unit_bytes
        if self.scaling == "arctan":
            return math.atan(x) / _HALF_PI
        # linear ablation variant
        return max(-1.0, min(1.0, x / self.linear_range))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReputationMetric kernel=two_hop unit={self.unit_bytes:.0f}B "
            f"scaling={self.scaling}>"
        )
