"""Batched 2-hop maxflow: all of one peer's candidates in a single pass.

The rank/ban policies evaluate ``R_i(j)`` for every unchoke candidate *j*
every choke round.  The scalar kernel (:func:`~repro.graph.maxflow
.maxflow_two_hop`) re-fetches the owner's in/out neighbourhoods, re-checks
node membership, and allocates a :class:`~repro.graph.maxflow.FlowResult`
for each of the ``2 * len(targets)`` flow queries.  This module hoists all
of that out of the per-target loop: the owner's neighbourhood views, their
sizes, and their bound ``.get`` methods are looked up once and reused for
the whole batch.

Bit-identical guarantee
-----------------------
:func:`maxflow_two_hop_batch` mirrors the scalar kernel exactly — the same
"scan the smaller neighbourhood" branch choice and the same accumulation
order (insertion order of the underlying adjacency dicts) — so a batched
reputation equals the scalar one *bitwise*, not just approximately.  The
property tests in ``tests/test_reputation_cache.py`` pin this.

One loop serves both graph classes (the columnar graph's ``successors`` /
``predecessors`` return snapshot dicts in the same iteration order).  The
only other route: a :class:`~repro.graph.columnar.ColumnarTransferGraph`
whose CSR snapshot is already fresh (``graph.csr_fresh`` — ``build_csr()``
was called and nothing was written since) hands the batch to the vectorized
:func:`~repro.graph.columnar.two_hop_batch_arrays`, which is bit-identical
by construction (same branch choices, same summation order — see that
module's docstring).  A stale snapshot is never rebuilt from here.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Hashable, Iterable, Tuple

from repro.graph.columnar import ColumnarTransferGraph, two_hop_batch_arrays
from repro.graph.maxflow import KERNEL_INVOCATIONS, _two_hop_paths
from repro.graph.transfer_graph import TransferGraph
from repro.obs import profile as _profile

__all__ = ["maxflow_two_hop_batch"]

PeerId = Hashable

KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch", 0)
KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch_targets", 0)
KERNEL_INVOCATIONS.setdefault("maxflow_two_hop_batch_columnar", 0)


def maxflow_two_hop_batch(
    graph: TransferGraph,
    owner: PeerId,
    targets: Iterable[PeerId],
    record_paths: bool = False,
) -> Dict[PeerId, Tuple]:
    """2-hop maxflows between ``owner`` and every target, one graph pass each.

    Parameters
    ----------
    graph:
        The subjective transfer graph of ``owner``.
    owner:
        The evaluating peer ``i`` (maxflow endpoint for both directions).
    targets:
        Candidate peers ``j``; duplicates and ``owner`` itself are skipped.
    record_paths:
        When True, each entry additionally carries the exact 2-hop path
        decompositions of both directions (the explain path; the online
        flag-off loops below are untouched).

    Returns
    -------
    dict
        ``{j: (inflow, outflow)}`` where ``inflow = maxflow2(j -> owner)``
        (service received, directly or via one intermediary) and
        ``outflow = maxflow2(owner -> j)`` (service provided).  Each value
        is bit-identical to the corresponding scalar
        :func:`~repro.graph.maxflow.maxflow_two_hop` call.  With
        ``record_paths`` the entries are ``(inflow, outflow, in_paths,
        out_paths)`` with tuples of
        :class:`~repro.graph.maxflow.FlowPath`; the flow values stay
        bit-identical (the recording twin mirrors the accumulation
        order).
    """
    prof = _profile.ACTIVE
    if prof is None:
        return _two_hop_batch_impl(graph, owner, targets, record_paths, None)
    t0 = _time.perf_counter()
    try:
        return _two_hop_batch_impl(graph, owner, targets, record_paths, prof)
    finally:
        prof.observe_kernel("maxflow_two_hop_batch", _time.perf_counter() - t0)


def _two_hop_batch_impl(
    graph: TransferGraph,
    owner: PeerId,
    targets: Iterable[PeerId],
    record_paths: bool,
    prof,
) -> Dict[PeerId, Tuple]:
    results: Dict[PeerId, Tuple] = {}
    KERNEL_INVOCATIONS["maxflow_two_hop_batch"] += 1
    if not graph.has_node(owner):
        empty = (0.0, 0.0, (), ()) if record_paths else (0.0, 0.0)
        for j in targets:
            if j != owner:
                results[j] = empty
        return results
    if record_paths:
        for j in targets:
            if j == owner or j in results:
                continue
            if not graph.has_node(j):
                results[j] = (0.0, 0.0, (), ())
                continue
            inflow, in_paths = _two_hop_paths(graph, j, owner)
            outflow, out_paths = _two_hop_paths(graph, owner, j)
            results[j] = (inflow, outflow, in_paths, out_paths)
        KERNEL_INVOCATIONS["maxflow_two_hop_batch_targets"] += len(results)
        return results

    if isinstance(graph, ColumnarTransferGraph) and graph.csr_fresh:
        # A fresh CSR is free to reuse (a query burst after ``build_csr``);
        # a stale one is left alone — the loop below costs O(degree) per
        # target, a rebuild O(E).
        uniq = [j for j in dict.fromkeys(targets) if j != owner]
        KERNEL_INVOCATIONS["maxflow_two_hop_batch_columnar"] += 1
        if prof is None:
            results = two_hop_batch_arrays(graph, owner, uniq)
        else:
            t0 = _time.perf_counter()
            results = two_hop_batch_arrays(graph, owner, uniq)
            prof.observe_kernel("two_hop_batch_arrays", _time.perf_counter() - t0)
        KERNEL_INVOCATIONS["maxflow_two_hop_batch_targets"] += len(results)
        return results

    out_i = graph.successors(owner)
    in_i = graph.predecessors(owner)
    len_out_i = len(out_i)
    len_in_i = len(in_i)
    out_i_get = out_i.get
    in_i_get = in_i.get
    successors = graph.successors
    predecessors = graph.predecessors
    has_node = graph.has_node

    for j in targets:
        if j == owner or j in results:
            continue
        if not has_node(j):
            results[j] = (0.0, 0.0)
            continue

        # inflow = maxflow2(j -> owner): direct edge plus, per intermediate
        # v, min(c(j, v), c(v, owner)), scanning the smaller side.
        out_j = successors(j)
        inflow = out_j.get(owner, 0.0)
        if len(out_j) <= len_in_i:
            for v, c_sv in out_j.items():
                if v == owner:
                    continue
                c_vt = in_i_get(v)
                if c_vt:
                    inflow += min(c_sv, c_vt)
        else:
            for v, c_vt in in_i.items():
                if v == j:
                    continue
                c_sv = out_j.get(v)
                if c_sv:
                    inflow += min(c_sv, c_vt)

        # outflow = maxflow2(owner -> j), same shape with roles swapped.
        in_j = predecessors(j)
        outflow = out_i_get(j, 0.0)
        if len_out_i <= len(in_j):
            for v, c_sv in out_i.items():
                if v == j:
                    continue
                c_vt = in_j.get(v)
                if c_vt:
                    outflow += min(c_sv, c_vt)
        else:
            for v, c_vt in in_j.items():
                if v == owner:
                    continue
                c_sv = out_i_get(v)
                if c_sv:
                    outflow += min(c_sv, c_vt)

        results[j] = (inflow, outflow)
    KERNEL_INVOCATIONS["maxflow_two_hop_batch_targets"] += len(results)
    return results
