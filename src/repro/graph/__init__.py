"""Transfer graphs and maxflow kernels.

The BarterCast reputation of peer *j* at peer *i* is computed from maxflows
on *i*'s subjective local graph, whose directed edge ``(a, b)`` carries the
total number of bytes *a* is believed to have uploaded to *b*.

The kernels live in :mod:`repro.graph.maxflow`, and the 2-hop closed form
is written once there (:func:`~repro.graph.maxflow.two_hop_flow`):

* :func:`~repro.graph.maxflow.maxflow_two_hop` — the closed-form
  O(degree) 2-hop-bounded maxflow, which is what the deployed BarterCast
  implementation uses and the only kernel the online metric calls;
  :func:`~repro.graph.maxflow.maxflow_two_hop_batch` gives both directed
  flows between one owner and many candidates, bit-identical to scalar
  calls, and :func:`~repro.graph.maxflow.two_hop_paths` the same value
  with its path decomposition (what ``repro explain`` reads).

The paper's Algorithm 1 itself (Ford–Fulkerson, exact and bounded to
``max_hops`` edges) is the reference the closed form is checked against;
it lives with the tests' reference model (``tests/model.py``).

Two interchangeable graph backends with one API:

* :class:`~repro.graph.transfer_graph.TransferGraph` — dict-of-dicts, the
  default and the reference oracle every property test compares against;
* :class:`~repro.graph.columnar.ColumnarTransferGraph` — a flat columnar
  edge-slot log with an on-demand numpy CSR snapshot, bit-identical to the
  oracle and slower than it (DESIGN.md §13).
"""

from repro.graph.transfer_graph import TransferGraph
from repro.graph.columnar import ColumnarTransferGraph
from repro.graph.maxflow import (
    FlowPath,
    FlowResult,
    kernel_invocations_delta,
    leave_one_out_values,
    maxflow_two_hop,
    maxflow_two_hop_batch,
    snapshot_kernel_invocations,
    two_hop_paths,
)

__all__ = [
    "TransferGraph",
    "ColumnarTransferGraph",
    "FlowPath",
    "FlowResult",
    "maxflow_two_hop",
    "leave_one_out_values",
    "maxflow_two_hop_batch",
    "two_hop_paths",
    "snapshot_kernel_invocations",
    "kernel_invocations_delta",
]
