"""Transfer graphs and maxflow kernels.

The BarterCast reputation of peer *j* at peer *i* is computed from maxflows
on *i*'s subjective local graph, whose directed edge ``(a, b)`` carries the
total number of bytes *a* is believed to have uploaded to *b*.

Three maxflow kernels are provided (all in :mod:`repro.graph.maxflow`):

* :func:`~repro.graph.maxflow.maxflow_two_hop` — a closed-form O(degree)
  evaluation of the 2-hop-bounded maxflow, which is what the deployed
  BarterCast implementation uses and the only kernel the online metric
  calls;
* :func:`~repro.graph.maxflow.ford_fulkerson` — the paper's Algorithm 1,
  classic Ford–Fulkerson with depth-first augmenting-path search;
* :func:`~repro.graph.maxflow.bounded_ford_fulkerson` — the same algorithm
  with augmenting paths restricted to at most ``max_hops`` edges; the two
  are the reference the closed form is checked against.

Plus the batched form (:mod:`repro.graph.batch`):

* :func:`~repro.graph.batch.maxflow_two_hop_batch` — both directed 2-hop
  maxflows between one owner and many candidates in a single pass, with
  the owner's neighbourhood lookups hoisted out of the per-target loop;
  bit-identical to per-target ``maxflow_two_hop`` calls.

Two interchangeable graph backends:

* :class:`~repro.graph.transfer_graph.TransferGraph` — dict-of-dicts, the
  reference oracle every property test compares against;
* :class:`~repro.graph.columnar.ColumnarTransferGraph` — flat columnar
  edge-slot log with numpy CSR materialization and a vectorized batch
  kernel, bit-identical to the oracle and slower than it (DESIGN.md §13).
"""

from repro.graph.transfer_graph import TransferGraph
from repro.graph.columnar import ColumnarTransferGraph, two_hop_batch_arrays
from repro.graph.interner import PeerInterner
from repro.graph.batch import maxflow_two_hop_batch
from repro.graph.maxflow import (
    FlowPath,
    FlowResult,
    bounded_ford_fulkerson,
    ford_fulkerson,
    kernel_invocations_delta,
    leave_one_out_values,
    maxflow_two_hop,
    snapshot_kernel_invocations,
)

__all__ = [
    "TransferGraph",
    "ColumnarTransferGraph",
    "PeerInterner",
    "two_hop_batch_arrays",
    "FlowPath",
    "FlowResult",
    "ford_fulkerson",
    "bounded_ford_fulkerson",
    "maxflow_two_hop",
    "leave_one_out_values",
    "maxflow_two_hop_batch",
    "snapshot_kernel_invocations",
    "kernel_invocations_delta",
]
