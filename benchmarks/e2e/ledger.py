"""Turn one traced run into the per-layer ledger.

Every span name maps to at most one ``calls`` metric and one self-time
metric, so the time metrics of the ledger plus ``bench.unattributed_s``
add up to the traced wall-clock: a layer's share can be read straight
off the ledger, and time no named layer claims is reported, not hidden.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from probes import EVENT_GROUPS, SpanLog

__all__ = ["SPAN_METRICS", "KERNELS", "STATS", "TIME_METRICS", "build_ledger", "all_names"]

Value = Optional[float]

#: Spans whose metrics are not simply ``<span>.calls`` / ``<span>.busy_s``.
#: The bt-round and gossip event spans *are* the simulator's round
#: bodies, so their self time carries the simulator's name.
_RENAMED: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "sim.engine.run_until": (None, "sim.engine.dispatch_self_s"),
    "sim.event.bt-round": ("sim.event.bt-round.calls", "bittorrent.simulator.round.self_s"),
    "sim.event.gossip": ("sim.event.gossip.calls", "bittorrent.simulator.gossip_round.self_s"),
    "traces.synthetic.generate": (None, "traces.synthetic.generate_s"),
    "experiments.build": (None, "experiments.build_s"),
    "experiments.run": (None, "experiments.assemble_s"),
}
_PLAIN = (
    "sim.event.sample",
    "sim.event.net-deliver",
    "sim.event.churn",
    "sim.event.session",
    "core.node.create_message",
    "core.node.receive_message",
    "core.node.record",
    "core.node.reputation",
    "core.history.select",
    "core.sharedhistory.ingest",
    "core.sharedhistory.forget_reporter",
    "pss.buddycast.tick",
    "pss.buddycast.sample",
    "bittorrent.choker.select_unchokes",
    "bittorrent.piece.pick_rarest",
    "bittorrent.stats.record_transfer",
    "faults.channel.plan_delivery",
    "faults.audit",
    "experiments.sampler",
)
#: span name -> (calls metric, self-time metric)
SPAN_METRICS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    **_RENAMED,
    **{span: (f"{span}.calls", f"{span}.busy_s") for span in _PLAIN},
}
TIME_METRICS = tuple(t for _, t in SPAN_METRICS.values() if t)

KERNELS = (
    "ford_fulkerson",
    "bounded_ford_fulkerson",
    "maxflow_two_hop",
    "maxflow_two_hop_batch",
    "maxflow_two_hop_batch_targets",
    "maxflow_two_hop_batch_columnar",
    "maxflow_two_hop_batch_rows",
)
#: Simulated statistics: exact for a fixed seed, so a speed-up must
#: leave them identical.
STATS = (
    "rep_spearman",
    "rep_separation",
    "freerider_speed_ratio",
    "edge_coverage",
    "false_ban_rate",
    "rank_inversion_rate",
)
_GRAPH = (
    "ingest_us_per_record",
    "cold_scalar_us",
    "cold_batch_us_per_target",
    "warm_batch_us_per_target",
    "mixed_us_per_iter",
    "num_edges",
    "rss_mb",
)
_OTHER = (
    "sim.engine.events",
    "core.history.records_per_msg",
    "core.sharedhistory.applied_ratio",
    "core.sharedhistory.dropped_ratio",
    "core.node.rep_cache.hit_ratio",
    "core.node.rep_cache.invalidations",
    "pss.buddycast.exchanges",
    "pss.buddycast.sample_miss_ratio",
    "bittorrent.choker.links_per_call",
    "bittorrent.simulator.transfers",
    "bittorrent.simulator.bytes_moved",
    "faults.channel.delivered",
    "faults.channel.dropped",
    "faults.channel.duplicated",
    "faults.channel.delayed",
    "faults.churn.crashes",
    "faults.churn.wipes",
    "graph.columnar.csr_build_ms",
    "obs.all_on.wall_ratio",
    "obs.trace.bytes_written",
    "obs.metrics.series",
    "obs.profiler.phase.bt.round.wall_s",
    "obs.profiler.phase.bt.round.choke.wall_s",
    "obs.profiler.phase.bt.round.transfer.wall_s",
    "obs.profiler.phase.gossip.wall_s",
    "bench.traced_wall_s",
    "bench.unattributed_s",
    "bench.trace_overhead_ratio",
)


def all_names() -> Tuple[str, ...]:
    """Every per-layer metric name the ledger can emit."""
    names = [m for pair in SPAN_METRICS.values() for m in pair if m]
    names += _OTHER
    names += [f"graph.maxflow.kernel.{k}.calls" for k in KERNELS]
    names += [f"graph.{b}.{m}" for b in ("default", "columnar") for m in _GRAPH]
    names += [f"experiments.{s}" for s in STATS]
    return tuple(names)


def _ratio(num: float, den: float) -> Value:
    return num / den if den else None


def build_ledger(
    log: Optional[SpanLog],
    traced_wall: Optional[float],
    untraced_wall: float,
    kernel_calls: Mapping[str, int],
    stats: Mapping[str, float],
    layer: Mapping[str, float],
) -> Dict[str, Value]:
    """The per-layer metrics of one run; ``None`` marks *not measured
    here* (the layer does not run in this workload, or its probe target
    is gone).

    ``log`` is ``None`` for a run made without span probes
    (``gossip_fast_obs``): only result-derived values are filled in.
    """
    out: Dict[str, Value] = dict.fromkeys(all_names())
    out.update({f"experiments.{k}": v for k, v in stats.items()})
    out.update(layer)
    if log is None:
        return out

    spans = log.aggregate()
    attributed = 0.0
    for span, (calls_metric, time_metric) in SPAN_METRICS.items():
        calls, busy = spans.get(span, (0, 0.0))
        if not calls:
            continue
        if calls_metric:
            out[calls_metric] = float(calls)
        if time_metric:
            out[time_metric] = (out[time_metric] or 0.0) + busy
            attributed += busy
    out["sim.engine.events"] = float(
        sum(spans.get(f"sim.event.{g}", (0, 0.0))[0] for g in {*EVENT_GROUPS.values(), "other"})
    ) or None

    c = log.counters
    calls_of = lambda span: spans.get(span, (0, 0.0))[0]
    out["core.history.records_per_msg"] = _ratio(c["core.message_records"], c["core.messages"])
    offered = c["core.records_offered"]
    out["core.sharedhistory.applied_ratio"] = _ratio(c["core.records_applied"], offered)
    out["core.sharedhistory.dropped_ratio"] = _ratio(offered - c["core.records_applied"], offered)
    out["pss.buddycast.sample_miss_ratio"] = _ratio(
        c["pss.sample_misses"], calls_of("pss.buddycast.sample")
    )
    out["bittorrent.choker.links_per_call"] = _ratio(
        c["bittorrent.links"], calls_of("bittorrent.choker.select_unchokes")
    )
    transfers = calls_of("bittorrent.stats.record_transfer")
    if transfers:
        out["bittorrent.simulator.transfers"] = float(transfers)
        out["bittorrent.simulator.bytes_moved"] = c["bittorrent.bytes_moved"]

    sim = log.captured.get("sim")
    if sim is not None:
        exchanges = getattr(getattr(sim, "pss", None), "exchanges", None)
        out["pss.buddycast.exchanges"] = None if exchanges is None else float(exchanges)
        st = sim.stats
        out["core.node.rep_cache.hit_ratio"] = _ratio(
            st.rep_cache_hits, st.rep_cache_hits + st.rep_cache_misses
        )
        out["core.node.rep_cache.invalidations"] = float(st.rep_cache_invalidations)
    for kernel in KERNELS:
        if kernel_calls.get(kernel):
            out[f"graph.maxflow.kernel.{kernel}.calls"] = float(kernel_calls[kernel])

    out["bench.traced_wall_s"] = traced_wall
    out["bench.unattributed_s"] = traced_wall - attributed
    out["bench.trace_overhead_ratio"] = traced_wall / untraced_wall
    return out
