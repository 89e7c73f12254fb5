"""Batched 2-hop maxflow: all of one peer's candidates in a single pass.

The rank/ban policies evaluate ``R_i(j)`` for every unchoke candidate *j*
every choke round.  :func:`maxflow_two_hop_batch` fetches the owner's
in/out neighbourhood views once for the whole batch and hands them, with
each target's views, to the one closed form
(:func:`~repro.graph.maxflow.two_hop_flow`) — the same function the
scalar kernel calls on the same views, so a batched reputation equals the
scalar one *bitwise*.  ``tests/test_two_hop_closed_form.py`` pins every
route against the naive closed form of ``tests/model.py``.

One loop serves both graph classes (the columnar graph's ``successors`` /
``predecessors`` return snapshot dicts in the same iteration order).  The
only other route: a :class:`~repro.graph.columnar.ColumnarTransferGraph`
whose CSR snapshot is already fresh (``graph.csr_fresh`` — ``build_csr()``
was called and nothing was written since) hands the batch to the vectorized
:func:`~repro.graph.columnar.two_hop_batch_arrays`, which is bit-identical
by construction (same branch choices, same summation order — see that
module's docstring).  A stale snapshot is never rebuilt from here.

The batch returns values only; a path decomposition is the scalar
kernel's (``maxflow_two_hop(record_paths=True)``, which ``repro explain``
asks for per subject).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

from repro.graph.columnar import ColumnarTransferGraph, two_hop_batch_arrays
from repro.graph.maxflow import KERNEL_INVOCATIONS, two_hop_flow
from repro.graph.transfer_graph import TransferGraph

__all__ = ["maxflow_two_hop_batch"]

PeerId = Hashable

KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch", 0)
KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch_targets", 0)
KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch_columnar", 0)


def maxflow_two_hop_batch(
    graph: TransferGraph,
    owner: PeerId,
    targets: Iterable[PeerId],
) -> Dict[PeerId, Tuple[float, float]]:
    """2-hop maxflows between ``owner`` and every target, one graph pass each.

    Parameters
    ----------
    graph:
        The subjective transfer graph of ``owner``.
    owner:
        The evaluating peer ``i`` (maxflow endpoint for both directions).
    targets:
        Candidate peers ``j``; duplicates and ``owner`` itself are skipped.

    Returns
    -------
    dict
        ``{j: (inflow, outflow)}`` where ``inflow = maxflow2(j -> owner)``
        (service received, directly or via one intermediary) and
        ``outflow = maxflow2(owner -> j)`` (service provided).  Each value
        is bit-identical to the corresponding scalar
        :func:`~repro.graph.maxflow.maxflow_two_hop` call.
    """
    results: Dict[PeerId, Tuple[float, float]] = {}
    KERNEL_INVOCATIONS["maxflow_two_hop_batch"] += 1
    if (
        isinstance(graph, ColumnarTransferGraph)
        and graph.csr_fresh
        and graph.has_node(owner)
    ):
        # A fresh CSR is free to reuse (a query burst after ``build_csr``);
        # a stale one is left alone — the loop below costs O(degree) per
        # target, a rebuild O(E).
        uniq = [j for j in dict.fromkeys(targets) if j != owner]
        KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"] += 1
        results = two_hop_batch_arrays(graph, owner, uniq)
    else:
        out_i = graph.successors(owner)
        in_i = graph.predecessors(owner)
        successors = graph.successors
        predecessors = graph.predecessors
        for j in targets:
            if j != owner and j not in results:
                # (maxflow2(j -> owner), maxflow2(owner -> j))
                results[j] = (
                    two_hop_flow(successors(j), in_i, owner),
                    two_hop_flow(out_i, predecessors(j), j),
                )
    KERNEL_INVOCATIONS["maxflow_two_hop_batch_targets"] += len(results)
    return results
