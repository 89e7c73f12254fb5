"""Terminal reports: render each figure's series like the paper plots them."""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.analysis.ascii_plot import ascii_chart, render_table
from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig4 import Fig4Result
from repro.experiments.faults import FaultsResult

__all__ = [
    "report_fig1",
    "report_fig2",
    "report_fig3",
    "report_fig4",
    "report_faults",
    "report_whitewash",
    "report_scalability",
]

GB = 1024.0**3


def report_fig1(result: Fig1Result) -> str:
    """Figure 1: reputation divergence + contribution/reputation scatter."""
    lines: List[str] = []
    lines.append("== Figure 1(a): average system reputation over time ==")
    rows = [
        (float(t), float(s), float(f))
        for t, s, f in zip(
            result.times_days, result.sharer_reputation, result.freerider_reputation
        )
    ]
    lines.append(render_table(["day", "sharers", "freeriders"], rows))
    lines.append(
        ascii_chart(
            {
                "sharers": result.sharer_reputation,
                "freeriders": result.freerider_reputation,
            },
            y_label="avg system reputation",
        )
    )
    lines.append(f"final separation (sharers - freeriders): {result.final_separation:.4f}")
    lines.append("")
    lines.append("== Figure 1(b): system reputation vs net contribution ==")
    order = np.argsort(result.net_contribution_gb)
    rows = [
        (float(result.net_contribution_gb[i]), float(result.system_reputation[i]))
        for i in order
    ]
    lines.append(render_table(["net contribution (GB)", "system reputation"], rows))
    lines.append(
        f"consistency: spearman={result.spearman:.3f} pearson={result.pearson:.3f}"
    )
    return "\n".join(lines)


def report_fig2(result: Fig2Result) -> str:
    """Figure 2: policy speed curves and the δ sweep."""
    lines: List[str] = []
    lines.append("== Figure 2(a): avg download speed (KBps), rank policy ==")
    rows = [
        (float(d), float(s), float(f))
        for d, s, f in zip(result.days, result.rank["sharers"], result.rank["freeriders"])
    ]
    lines.append(render_table(["day", "sharers", "freeriders"], rows, "{:.1f}"))
    lines.append(
        f"final freerider/sharer speed ratio: {result.final_ratio('rank'):.2f}"
        "  (paper: ~0.75)"
    )
    lines.append("")
    lines.append(
        f"== Figure 2(b): avg download speed (KBps), ban policy (delta={result.ban_delta}) =="
    )
    rows = [
        (float(d), float(s), float(f))
        for d, s, f in zip(result.days, result.ban["sharers"], result.ban["freeriders"])
    ]
    lines.append(render_table(["day", "sharers", "freeriders"], rows, "{:.1f}"))
    lines.append(
        f"final freerider/sharer speed ratio: {result.final_ratio('ban'):.2f}"
        "  (paper: ~0.50)"
    )
    lines.append("")
    lines.append("== Figure 2(c): freerider speed (KBps) for different delta ==")
    deltas = sorted(result.delta_sweep)
    headers = ["day"] + [f"d={d}" for d in deltas]
    rows = []
    for i, day in enumerate(result.days):
        rows.append(
            [float(day)] + [float(result.delta_sweep[d][i]) for d in deltas]
        )
    lines.append(render_table(headers, rows, "{:.1f}"))
    return "\n".join(lines)


def report_fig3(result: Fig3Result) -> str:
    """Figure 3: speeds vs disobeying-peer percentage."""
    label = "ignoring" if result.kind == "ignore" else "lying"
    lines: List[str] = []
    lines.append(f"== Figure 3({'a' if result.kind == 'ignore' else 'b'}): "
                 f"avg download speed vs % of peers {label} ==")
    rel = result.relative_freerider_speed()
    rows = [
        (float(p), float(s), float(f), float(r))
        for p, s, f, r in zip(
            result.percentages,
            result.sharer_speed_kbps,
            result.freerider_speed_kbps,
            rel,
        )
    ]
    lines.append(
        render_table(
            [f"% {label}", "sharers KBps", "freeriders KBps", "freerider/sharer"],
            rows,
            "{:.2f}",
        )
    )
    return "\n".join(lines)


def report_fig4(result: Fig4Result) -> str:
    """Figure 4: deployment contribution imbalance + reputation CDF."""
    lines: List[str] = []
    lines.append("== Figure 4(a): upload - download of seen peers ==")
    net = result.net_contribution
    rows = [
        ("peers seen", result.peers_seen),
        ("messages logged", result.messages_logged),
        ("fraction net-negative", float((net < 0).mean())),
        ("fraction exactly zero", float((net == 0).mean())),
        ("fraction net-positive", float((net > 0).mean())),
        ("median net (MB)", float(np.median(net) / 1024**2)),
        ("max altruist (GB)", result.max_altruist_gb),
        ("min consumer (GB)", float(net.min() / GB)),
    ]
    lines.append(render_table(["statistic", "value"], rows))
    lines.append("")
    lines.append("== Figure 4(b): reputation CDF at the measurement peer ==")
    grid = np.linspace(-1.0, 1.0, 21)
    cdf_rows = []
    for x in grid:
        frac = float((result.reputation_values <= x).mean()) if result.reputation_values.size else float("nan")
        cdf_rows.append((float(x), frac))
    lines.append(render_table(["reputation", "cdf"], cdf_rows, "{:.3f}"))
    f = result.fractions
    lines.append(
        f"fractions: negative={f['negative']:.2f} zero={f['zero']:.2f} "
        f"positive={f['positive']:.2f}  (paper: ~0.40 / ~0.50 / ~0.10)"
    )
    return "\n".join(lines)


def report_faults(result: FaultsResult) -> str:
    """Fault sweep: reputation quality vs. gossip-plane fault level.

    One quality section per reputation mechanism in the sweep (the
    mechanisms ran on identical seeded schedules, so the fault columns
    line up row for row and the tables read as a direct comparison).
    The channel/churn telemetry is mechanism-independent by
    construction and is printed once.
    """
    lines: List[str] = []
    engines = result.engines or ("bartercast",)
    lines.append(
        "== Fault sweep: reputation quality vs message loss"
        f" (profile={result.profile}, ban delta={result.delta}) =="
    )
    for engine in engines:
        pts = result.points_for(engine)
        if len(engines) > 1:
            lines.append(f"-- mechanism: {engine} --")
        rows = [
            (
                float(p.loss),
                float(p.churn),
                float(p.coverage),
                float(p.false_ban_rate),
                float(p.rank_inversion_rate),
                float(p.convergence_time),
            )
            for p in pts
        ]
        lines.append(
            render_table(
                [
                    "loss", "churn/day", "coverage", "false-ban",
                    "rank-inversion", "converge-s",
                ],
                rows,
                "{:.3f}",
            )
        )
    lines.append("")
    lines.append("== Channel / churn telemetry ==")
    rows = [
        (
            float(p.loss),
            p.messages_delivered,
            p.messages_dropped,
            p.messages_duplicated,
            p.messages_delayed,
            p.crashes,
            p.wipes,
        )
        for p in result.points_for(engines[0])
    ]
    lines.append(
        render_table(
            ["loss", "delivered", "dropped", "duplicated", "delayed", "crashes", "wipes"],
            rows,
        )
    )
    if any(p.digests for p in result.points):
        MB = 1024.0 * 1024.0
        lines.append("")
        lines.append("== Worst rank inversions (--top-k digests) ==")
        for p in result.points:
            if not p.digests:
                continue
            tag = f" [{p.engine}]" if len(engines) > 1 else ""
            lines.append(f"loss={p.loss:g} churn/day={p.churn:g}{tag}:")
            for d in p.digests:
                lines.append(
                    f"  peer {d.evaluator} ranks freerider {d.freerider} "
                    f"(R={d.freerider_rep:+.3f}) above sharer {d.sharer} "
                    f"(R={d.sharer_rep:+.3f}, gap {d.severity:.3f})"
                )
                lines.append(
                    f"    ground truth: sharer contributed "
                    f"{d.sharer_contribution / MB:+.0f} MB vs freerider "
                    f"{d.freerider_contribution / MB:+.0f} MB; evaluator sees "
                    f"inflow {d.sharer_inflow / MB:.0f} MB / outflow "
                    f"{d.sharer_outflow / MB:.0f} MB from the sharer over "
                    f"{d.sharer_claims} gossip claim(s)"
                )
    violations = result.total_violations
    lines.append(
        f"invariant audit: {violations} violation(s) across "
        f"{len(result.points)} fault level(s)"
        + ("" if violations == 0 else "  ** INVARIANT BREACH **")
    )
    return "\n".join(lines)


def report_whitewash(results: Sequence) -> str:
    """Whitewashing assessment: one row per stranger policy, in the order
    of :func:`repro.experiments.whitewash.whitewash_tasks`."""
    kinds = ("trusted", "static", "adaptive")
    rows = [
        (kind, r.service["newcomer"], r.service["washer"],
         r.washer_advantage, r.identities_burned, r.prior_trajectory[-1])
        for kind, r in zip(kinds, results)
    ]
    return "== Whitewashing defenses (paper 3.5 / future work) ==\n" + render_table(
        ["stranger policy", "newcomer units", "washer units",
         "washer/newcomer", "ids burned", "final prior"],
        rows, "{:.2f}",
    )


def report_scalability(result) -> str:
    """Scalability assessment: per-size query / ingest cost of one view."""
    lines = [
        "== Scalability of the subjective view ==",
        render_table(
            ["known peers", "edges", "query us", "batch us", "warm us",
             "ingest us/record", "outside reach %"],
            [
                (p.num_peers, p.num_edges, p.query_us, p.batch_query_us,
                 p.warm_query_us, p.ingest_us, 100.0 * p.outside_share)
                for p in result.points
            ],
            "{:.1f}",
        ),
        f"query growth factor across sizes: {result.query_growth_factor():.2f}",
    ]
    if not math.isnan(result.cache_hit_rate):
        lines.append(f"reputation cache hit rate: {result.cache_hit_rate:.1%}")
    return "\n".join(lines)
