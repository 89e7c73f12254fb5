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

Kernels
-------
``kernel='two_hop'`` (default) uses the closed-form 2-hop maxflow that the
deployed BarterCast uses; ``'bounded'`` runs depth-limited Ford–Fulkerson
with configurable ``max_hops``; ``'exact'`` runs full Ford–Fulkerson.  The
path-length ablation bench compares them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, Literal, Optional

from repro.graph.batch import maxflow_two_hop_batch
from repro.graph.maxflow import (
    bounded_ford_fulkerson,
    ford_fulkerson,
    maxflow_two_hop,
    maxflow_two_hop_pair,
)
from repro.graph.transfer_graph import TransferGraph

__all__ = ["MB", "DEFAULT_UNIT_BYTES", "ReputationMetric"]

PeerId = Hashable
KernelName = Literal["two_hop", "bounded", "exact"]

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
    kernel:
        Which maxflow kernel to use: ``'two_hop'`` (closed form, default),
        ``'bounded'`` (depth-limited Ford–Fulkerson), or ``'exact'``.
    max_hops:
        Path-length bound for the ``'bounded'`` kernel (default 2).
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
        kernel: KernelName = "two_hop",
        max_hops: int = 2,
        scaling: Literal["arctan", "linear"] = "arctan",
        linear_range: float = 1000.0,
    ) -> None:
        if unit_bytes <= 0:
            raise ValueError(f"unit_bytes must be positive, got {unit_bytes}")
        if kernel not in ("two_hop", "bounded", "exact"):
            raise ValueError(f"unknown kernel {kernel!r}")
        if scaling not in ("arctan", "linear"):
            raise ValueError(f"unknown scaling {scaling!r}")
        if linear_range <= 0:
            raise ValueError(f"linear_range must be positive, got {linear_range}")
        self.unit_bytes = float(unit_bytes)
        self.kernel: KernelName = kernel
        self.max_hops = int(max_hops)
        self.scaling = scaling
        self.linear_range = float(linear_range)

    # ------------------------------------------------------------------
    def maxflow(self, graph: TransferGraph, source: PeerId, sink: PeerId) -> float:
        """Maxflow value (bytes) from ``source`` to ``sink`` per the kernel."""
        if self.kernel == "two_hop":
            return maxflow_two_hop(graph, source, sink).value
        if self.kernel == "bounded":
            return bounded_ford_fulkerson(
                graph, source, sink, max_hops=self.max_hops
            ).value
        return ford_fulkerson(graph, source, sink).value

    def maxflow_result(
        self,
        graph: TransferGraph,
        source: PeerId,
        sink: PeerId,
        record_paths: bool = False,
    ):
        """The full kernel result, optionally with the path decomposition.

        Used by the explain path (:mod:`repro.obs.explain`); the flow
        value is bit-identical to :meth:`maxflow` either way.
        """
        if self.kernel == "two_hop":
            return maxflow_two_hop(graph, source, sink, record_paths=record_paths)
        if self.kernel == "bounded":
            return bounded_ford_fulkerson(
                graph, source, sink, max_hops=self.max_hops, record_paths=record_paths
            )
        return ford_fulkerson(graph, source, sink, record_paths=record_paths)

    def reputation(self, graph: TransferGraph, i: PeerId, j: PeerId) -> float:
        """The subjective reputation ``R_i(j)`` of peer ``j`` at peer ``i``.

        ``i`` is the evaluating peer (the maxflow sink for service received),
        ``j`` the evaluated peer.
        """
        if i == j:
            raise ValueError("a peer has no reputation at itself")
        if self.kernel == "two_hop":
            inflow, outflow = maxflow_two_hop_pair(graph, i, j)
        else:
            inflow = self.maxflow(graph, j, i)
            outflow = self.maxflow(graph, i, j)
        return self.scale(inflow - outflow)

    def reputation_batch(
        self, graph: TransferGraph, i: PeerId, targets: Iterable[PeerId]
    ) -> Dict[PeerId, float]:
        """``R_i(j)`` for every target ``j`` in one pass.

        For the default ``two_hop`` kernel this routes through
        :func:`~repro.graph.batch.maxflow_two_hop_batch`, hoisting the
        owner's neighbourhood lookups out of the per-target loop; results
        are bit-identical to per-target :meth:`reputation` calls.  The
        iterative kernels have no batched form and fall back to the scalar
        path.  ``i`` itself and duplicate targets are skipped.
        """
        if self.kernel == "two_hop":
            scale = self.scale
            return {
                j: scale(inflow - outflow)
                for j, (inflow, outflow) in maxflow_two_hop_batch(
                    graph, i, targets
                ).items()
            }
        out: Dict[PeerId, float] = {}
        for j in targets:
            if j != i and j not in out:
                out[j] = self.reputation(graph, i, j)
        return out

    @property
    def supports_dirty_invalidation(self) -> bool:
        """Whether 2-hop dirty-set cache invalidation is *exact* for this
        metric.

        True only for the ``two_hop`` kernel, where ``R_i(j)`` depends
        exclusively on edges incident to ``i`` or ``j`` (see DESIGN.md §6,
        "Cache discipline").  The iterative kernels can route flow through
        longer paths, so their consumers must fall back to full
        invalidation on any edge change.
        """
        return self.kernel == "two_hop"

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
            f"<ReputationMetric kernel={self.kernel} unit={self.unit_bytes:.0f}B "
            f"scaling={self.scaling}>"
        )
