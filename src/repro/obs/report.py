"""Human-readable summary of a run's metrics and profile.

``render_metrics_snapshot`` turns a :class:`~repro.obs.metrics
.MetricsRegistry` summary into the section the CLI prints under
``--metrics`` (:meth:`~repro.obs.metrics.MetricsRegistry.render`):
every counter and gauge by name, a network section for the fault
channel's delivery telemetry (hidden when the run had no channel
faults), the reputation-cache hit rate, the reputation evaluations and
the targets that reached the 2-hop kernel.
Times are the profile's (``render_profile``, ``--prof``).

The rendering core works off the plain snapshot dict, so the same code
also renders *stored* runs: ``render_manifest_report`` takes a loaded
``run_manifest.json`` document (``repro report``) and replays the
metrics summary plus the profile and timeseries sections, if the run
recorded them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.ascii_plot import render_table

__all__ = [
    "render_dissemination",
    "render_manifest_report",
    "render_metrics_snapshot",
    "render_profile",
]


def _fmt_seconds(seconds) -> str:
    # None (an empty cell's min/max) and NaN both render as "-".
    if seconds is None or seconds != seconds:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def _value(snap: Dict[str, dict], name: str) -> float:
    entry = snap.get(name)
    if not entry:
        return 0.0
    return float(entry.get("value") or 0.0)


def render_metrics_snapshot(snap: Dict[str, dict]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict (live or stored)."""
    lines: List[str] = ["== Metrics =="]

    scalars = {
        name: s for name, s in snap.items() if s.get("type") in ("counter", "gauge")
    }
    if scalars:
        lines.append("-- counters --")
        lines.append(
            render_table(
                ["metric", "value"],
                [(name, f"{s['value']:,.0f}") for name, s in sorted(scalars.items())],
                "{}",
            )
        )

    net_rows = [
        (label, _value(snap, f"net.{label}"))
        for label in (
            "delivered",
            "dropped",
            "dropped_by_churn",
            "duplicated",
            "delayed",
        )
    ]
    if any(value for _, value in net_rows):
        lines.append("-- network (fault channel) --")
        lines.append(
            render_table(
                ["outcome", "messages"],
                [(label, f"{value:,.0f}") for label, value in net_rows],
                "{}",
            )
        )
        delivered = net_rows[0][1]
        dropped = net_rows[1][1]
        offered = delivered + dropped
        if offered:
            lines.append(f"delivery rate: {delivered / offered:.1%} of offered gossip")

    derived: List[str] = []
    hits = _value(snap, "rep.cache.hits")
    misses = _value(snap, "rep.cache.misses")
    if hits + misses > 0:
        derived.append(f"reputation cache hit rate: {hits / (hits + misses):.1%}")
    kernel_calls = _value(snap, "rep.kernel.calls")
    kernel_targets = _value(snap, "rep.kernel.targets")
    if kernel_calls:
        derived.append(
            f"reputation evaluations: {kernel_calls:,.0f}, "
            f"{kernel_targets:,.0f} targets scored"
        )
    # Node evaluations are not kernel passes: a peer outside the owner's
    # reach set is scored without one.  The 2-hop gauges say what the
    # kernel itself saw.
    if any(name.startswith("rep.kernel.maxflow_two_hop") for name in snap):
        derived.append(
            "2-hop kernel reached by: "
            f"{_value(snap, 'rep.kernel.maxflow_two_hop_batch_targets'):,.0f} "
            "batched targets, "
            f"{_value(snap, 'rep.kernel.maxflow_two_hop'):,.0f} scalar flows "
            "(two per scalar evaluation)"
        )
    if derived:
        lines.append("-- derived --")
        lines.extend(derived)
    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_profile(profile: dict, top: int = 12) -> str:
    """Render a :meth:`~repro.obs.profile.Profiler.summary` dict."""
    lines: List[str] = ["== Profile =="]
    phases = profile.get("phases") or {}
    if phases:
        ranked = sorted(
            phases.items(), key=lambda kv: -(kv[1].get("wall_s") or 0.0)
        )[:top]
        lines.append("-- phases (by total wall time) --")
        lines.append(
            render_table(
                ["phase", "calls", "wall", "self", "cpu", "max"],
                [
                    (
                        path,
                        s.get("count", 0),
                        _fmt_seconds(s.get("wall_s")),
                        _fmt_seconds(s.get("self_wall_s")),
                        _fmt_seconds(s.get("cpu_s")),
                        _fmt_seconds(s.get("max_s")),
                    )
                    for path, s in ranked
                ],
                "{}",
            )
        )
    for section, title, label, fired in (
        ("events", "engine events (by total dispatch time)", "event", "fired"),
        ("kernels", "reputation evaluations (by total time)", "evaluation", "calls"),
    ):
        cells = sorted(
            ((l, s) for l, s in (profile.get(section) or {}).items() if s.get("count")),
            key=lambda kv: -(kv[1].get("wall_s") or 0.0),
        )
        if not cells:
            continue
        lines.append(f"-- {title} --")
        lines.append(
            render_table(
                [label, fired, "total", "max"],
                [
                    (
                        l,
                        s["count"],
                        _fmt_seconds(s.get("wall_s")),
                        _fmt_seconds(s.get("max_s")),
                    )
                    for l, s in cells[:top]
                ],
                "{}",
            )
        )
    dropped = profile.get("spans_dropped") or 0
    if dropped:
        lines.append(f"(span log full: {dropped:,} spans dropped; aggregates complete)")
    if len(lines) == 1:
        lines.append("(no profile recorded)")
    return "\n".join(lines)


def _render_timeseries_summary(ts: dict) -> str:
    lines = ["== Timeseries =="]
    series = ts.get("series") or []
    rows = []
    for entry in series:
        final = entry.get("final") or {}
        rows.append(
            (
                entry.get("label", "?"),
                entry.get("samples", 0),
                f"{final.get('coverage', float('nan')):.3f}"
                if "coverage" in final
                else "-",
                f"{final.get('rank_inversion_rate', float('nan')):.3f}"
                if "rank_inversion_rate" in final
                else "-",
                f"{final.get('cache_hit_rate', float('nan')):.3f}"
                if "cache_hit_rate" in final
                else "-",
            )
        )
    if rows:
        lines.append(
            render_table(
                ["series", "samples", "final cov", "final inv", "final hit"],
                rows,
                "{}",
            )
        )
    else:
        lines.append("(no series recorded)")
    return "\n".join(lines)


def render_dissemination(summary: dict) -> str:
    """Render a :meth:`~repro.obs.dissemination.DisseminationCollector
    .summary` dict (live or from a stored manifest)."""
    lines = ["== Dissemination =="]
    runs = summary.get("runs") or []
    rows = []
    for run in runs:
        events = run.get("events") or {}
        redundancy = run.get("redundancy_factor")
        rows.append(
            (
                run.get("label", "?"),
                run.get("messages", 0),
                f"{run.get('claims_reached', 0)}/{run.get('claims', 0)}",
                events.get("deliver", 0),
                events.get("drop", 0),
                events.get("wipe", 0),
                f"{redundancy:.2f}" if redundancy is not None else "-",
            )
        )
    if rows:
        lines.append(
            render_table(
                ["run", "msgs", "claims", "delivered", "dropped", "wipes", "redund"],
                rows,
                "{}",
            )
        )
        hops: Dict[str, int] = {}
        for run in runs:
            for hop, count in (run.get("hop_histogram") or {}).items():
                hops[hop] = hops.get(hop, 0) + count
        if hops:
            lines.append(
                "hop counts: "
                + ", ".join(f"{h} hop(s): {n:,}" for h, n in sorted(hops.items()))
            )
    else:
        lines.append("(no dissemination recorded)")
    return "\n".join(lines)


def render_manifest_report(doc: dict) -> str:
    """Render a stored ``run_manifest.json`` document (``repro report``).

    Every section is optional: a manifest from a plain run (no
    ``--metrics``/``--prof``/``--timeseries``) still renders the header
    and phase table; an absent network section and empty profile
    cells degrade to placeholders rather than raising.
    """
    lines: List[str] = []
    header = f"== Run: {doc.get('command', '?')} =="
    lines.append(header)
    facts = [
        ("profile", doc.get("profile")),
        ("seed", doc.get("seed")),
        ("package", doc.get("package_version")),
        ("git", doc.get("git_rev")),
        ("wall", _fmt_seconds(doc.get("wall_seconds_total"))),
    ]
    lines.append(
        " · ".join(f"{k} {v}" for k, v in facts if v is not None)
    )
    phases = doc.get("wall_seconds_by_phase") or {}
    if phases:
        lines.append("-- wall time by phase --")
        lines.append(
            render_table(
                ["phase", "wall"],
                [
                    (name, _fmt_seconds(seconds))
                    for name, seconds in sorted(
                        phases.items(), key=lambda kv: -kv[1]
                    )
                ],
                "{}",
            )
        )
    extra = doc.get("extra") or {}
    metrics = doc.get("metrics")
    if metrics:
        lines.append("")
        lines.append(render_metrics_snapshot(metrics))
    profile = extra.get("profile")
    if profile:
        lines.append("")
        lines.append(render_profile(profile))
    ts = extra.get("timeseries")
    if ts:
        lines.append("")
        lines.append(_render_timeseries_summary(ts))
    diss = extra.get("dissemination")
    if diss:
        lines.append("")
        lines.append(render_dissemination(diss))
    parallel = extra.get("parallel")
    if parallel and isinstance(parallel, dict):
        lines.append(
            f"parallel: mode {parallel.get('mode')}, jobs {parallel.get('jobs')}, "
            f"{len(parallel.get('tasks') or [])} tasks"
        )
    return "\n".join(lines)
