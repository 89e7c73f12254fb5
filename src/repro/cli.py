"""Command-line entry point.

Usage::

    python -m repro.cli fig1 [--profile fast|paper] [--seed N]
    python -m repro.cli fig2 [--profile ...]
    python -m repro.cli fig3 [--kind ignore|lie] [--profile ...]
    python -m repro.cli fig4 [--peers N] [--seed N]
    python -m repro.cli whitewash [--seed N]
    python -m repro.cli scalability [--peers N]
    python -m repro.cli faults [--losses 0,0.1,0.25,0.5] [--churn R]
    python -m repro.cli dissemination [--loss 0.2] [--export out/]
    python -m repro.cli explain --peer I [--subject J] [--profile ...]
    python -m repro.cli all  [--profile ...] [--fig4-peers N]
    python -m repro.cli report PATH          # re-render a stored manifest
    python -m repro.cli monitor [DIR]        # watch a running --jobs sweep
    python -m repro.cli chrome-trace TRACE   # convert a JSONL trace for Perfetto

Each subcommand regenerates one figure of the paper and prints the series
as tables/ASCII charts (see :mod:`repro.experiments.report`).

Fault-injection flags (on every scenario-driven figure command):

``--loss P`` / ``--dup P`` / ``--delay S`` / ``--churn R``
    Run the figure over an unreliable gossip plane: per-message drop
    probability, per-copy duplication probability, maximum random
    delivery delay (seconds), and abrupt-restart rate (events per peer
    per day).  All default to 0; with every knob at 0 the fault layer is
    never constructed and the run is bit-identical to one without these
    flags.  The ``faults`` subcommand sweeps a loss ladder and reports
    reputation coverage, false-ban rate and rank-inversion rate (add
    ``--top-k K`` for per-inversion explanation digests).

Provenance (``--provenance``, on every scenario-driven command):

    Record claim lineage — which gossip message delivered each live
    claim, when, and how many earlier copies it superseded — during the
    run.  Recording never feeds back into behaviour (results stay
    bit-identical); it exists for the ``explain`` subcommand, which
    re-runs a scenario with provenance on and decomposes one peer's
    subjective reputation of another into maxflow paths, leave-one-out
    deltas and per-edge claim lineage.

Observability flags (available on every subcommand):

``--metrics``
    Collect counters/timers during the run and print a summary report.
``--trace PATH``
    Write a JSONL structured trace of simulator events to ``PATH``.
``--trace-sample RATE``
    Trace sampling: a global keep-rate (``0.1``) or per-category spec
    (``0.05,bt.transfer=0.01``).
``--jobs N``
    Fan independent sweep points out to ``N`` worker processes
    (:mod:`repro.parallel`).  Results are bit-identical to ``--jobs 1``;
    ``all --jobs N`` pools every figure's tasks so workers stay busy
    across figure boundaries.  Tracing forces ``--jobs 1`` (one trace
    stream, one process).
``--timeseries [SECONDS]``
    Record a convergence time-series per simulation (reputation
    coverage, rank-inversion rate, cache hit rate, ``net.*`` deltas) at
    the given sim-time cadence; with no value, one row per stats
    sample.  Exported as CSV + JSON beside the run manifest.
``--prof``
    Profile run phases and maxflow kernels (wall + CPU, per-invocation
    histograms); prints a profile section and stores it in the
    manifest.  Phase spans additionally land in
    ``profile_chrome.json`` for Perfetto.
``--dissemination``
    Record per-claim dissemination DAGs (sends, deliveries, drops,
    duplicates, delays, churn wipes) during the run.  Never feeds back
    into behaviour — results stay bit-identical.  The ``dissemination``
    subcommand runs one faulted scenario with recording forced on and
    prints propagation analytics (time-to-coverage, hop counts,
    redundancy) plus fault attribution for undelivered claims;
    exported as CSV + JSON beside the run manifest.
``--monitor-dir DIR``
    Spool directory for live ``--jobs`` sweep monitoring (see ``repro
    monitor``); defaults to a per-user temp directory.

When ``--export DIR`` or ``--trace`` is given, a ``run_manifest.json``
capturing config, seed, code revision, per-phase wall time, and the final
metrics snapshot is written next to the output.  Instrumentation never
changes results: an instrumented run is bit-identical to a plain one.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments import (
    ScenarioConfig,
    report,
    run_fig2,
    run_fig3,
)
from repro.obs import ManifestBuilder, Observability, make_observability
from repro.obs.report import render_report

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bartercast",
        description="Regenerate the figures of the BarterCast paper (IPDPS 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics",
            action="store_true",
            help="collect run metrics and print a summary report",
        )
        p.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write a JSONL structured trace of simulator events to PATH",
        )
        p.add_argument(
            "--trace-sample",
            metavar="RATE",
            default=None,
            help="trace sampling: global rate ('0.1') or per-category "
            "spec ('0.05,bt.transfer=0.01')",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for independent sweep points "
            "(1 = serial; results are bit-identical at any level)",
        )
        p.add_argument(
            "--timeseries",
            nargs="?",
            const=-1.0,
            type=float,
            default=None,
            metavar="SECONDS",
            help="record a convergence time-series (coverage, rank "
            "inversion, cache hit rate, net deltas); optional sim-time "
            "cadence in seconds, default one row per stats sample",
        )
        p.add_argument(
            "--prof",
            action="store_true",
            help="profile phases and maxflow kernels (wall+CPU) and "
            "print/store a profile section",
        )
        p.add_argument(
            "--dissemination",
            action="store_true",
            help="record per-claim dissemination DAGs (propagation "
            "analytics + fault attribution; never changes results)",
        )
        p.add_argument(
            "--monitor-dir",
            metavar="DIR",
            default=None,
            help="spool directory for live sweep monitoring "
            "('repro monitor'; default: per-user temp dir)",
        )

    def add_faults(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--loss",
            type=float,
            default=0.0,
            metavar="P",
            help="per-message gossip drop probability (0 = reliable channel)",
        )
        p.add_argument(
            "--dup",
            type=float,
            default=0.0,
            metavar="P",
            help="per-copy gossip duplication probability (0 = exactly-once)",
        )
        p.add_argument(
            "--delay",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="maximum random gossip delivery delay (0 = instant; "
            "independent delays reorder messages)",
        )
        p.add_argument(
            "--churn",
            type=float,
            default=0.0,
            metavar="RATE",
            help="abrupt peer restarts per peer per simulated day "
            "(0 = no churn)",
        )

    def add_provenance(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--provenance",
            action="store_true",
            help="record claim lineage during the run (for 'explain'; "
            "never changes results)",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile",
            choices=("tiny", "fast", "paper"),
            default="fast",
            help="scenario scale: 'fast' (seconds) or 'paper' (full scale, minutes)",
        )
        p.add_argument("--seed", type=int, default=42, help="root random seed")
        p.add_argument(
            "--export",
            metavar="DIR",
            default=None,
            help="also write the figure series as TSV files into DIR",
        )
        add_faults(p)
        add_provenance(p)
        add_obs(p)

    add_common(sub.add_parser("fig1", help="contribution vs reputation"))
    add_common(sub.add_parser("fig2", help="rank/ban policy effectiveness"))
    p3 = sub.add_parser("fig3", help="disobeying the message protocol")
    add_common(p3)
    p3.add_argument(
        "--kind",
        choices=("ignore", "lie", "both"),
        default="both",
        help="manipulation type (panel a: ignore, panel b: lie)",
    )
    p4 = sub.add_parser("fig4", help="deployment measurement")
    p4.add_argument("--peers", type=int, default=5000, help="population size")
    p4.add_argument("--seed", type=int, default=42, help="root random seed")
    p4.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write the figure series as TSV files into DIR",
    )
    add_obs(p4)
    pw = sub.add_parser("whitewash", help="stranger-policy trade-off (paper 3.5)")
    pw.add_argument("--seed", type=int, default=42, help="root random seed")
    add_obs(pw)
    ps = sub.add_parser(
        "scalability", help="subjective-view scaling up to 100k peers"
    )
    ps.add_argument("--peers", type=int, default=100_000, help="largest view size")
    ps.add_argument("--seed", type=int, default=42, help="root random seed")
    add_obs(ps)
    pf = sub.add_parser(
        "faults", help="reputation quality vs gossip-plane fault level"
    )
    pf.add_argument(
        "--profile",
        choices=("tiny", "fast", "paper"),
        default="fast",
        help="scenario scale: 'fast' (seconds) or 'paper' (full scale, minutes)",
    )
    pf.add_argument("--seed", type=int, default=42, help="root random seed")
    pf.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write the sweep series as TSV files into DIR",
    )
    pf.add_argument(
        "--losses",
        default="0,0.1,0.25,0.5",
        metavar="L1,L2,...",
        help="comma-separated message-loss ladder to sweep",
    )
    pf.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="single-point shorthand: sweep exactly this one loss level "
        "(overrides --losses)",
    )
    pf.add_argument(
        "--churn",
        default="0",
        metavar="R1,R2,...",
        help="comma-separated churn rates (abrupt restarts per peer per "
        "day) to sweep; a single value reproduces the historical "
        "one-rate sweep",
    )
    pf.add_argument(
        "--engine",
        default="bartercast",
        metavar="E1,E2,...",
        help="comma-separated reputation mechanisms to compare on "
        "identical seeded schedules: bartercast, gossip, ratio "
        "(DESIGN.md §15)",
    )
    pf.add_argument(
        "--dup",
        type=float,
        default=0.0,
        metavar="P",
        help="per-copy duplication probability, applied at every sweep point",
    )
    pf.add_argument(
        "--delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="maximum random delivery delay, applied at every sweep point",
    )
    pf.add_argument(
        "--delta",
        type=float,
        default=-0.5,
        help="ban threshold used for the false-ban measure",
    )
    pf.add_argument(
        "--top-k",
        type=int,
        default=0,
        metavar="K",
        help="report the K worst rank inversions per sweep point with "
        "reputation/contribution digests (0 = off; implies per-point "
        "provenance recording)",
    )
    add_provenance(pf)
    add_obs(pf)
    pd = sub.add_parser(
        "dissemination",
        help="trace per-claim gossip dissemination under faults "
        "(propagation DAGs, coverage, fault attribution)",
    )
    add_common(pd)
    pd.add_argument(
        "--attributions",
        type=int,
        default=5,
        metavar="K",
        help="how many undelivered claims to attribute to exact "
        "drop/wipe events (0 = all)",
    )
    pe = sub.add_parser(
        "explain",
        help="decompose one subjective reputation into paths and claim lineage",
    )
    pe.add_argument(
        "--peer", type=int, required=True, metavar="I",
        help="the evaluating peer i (whose subjective view is explained)",
    )
    pe.add_argument(
        "--subject", type=int, default=None, metavar="J",
        help="the evaluated peer j; omitted: the --top-k peers with the "
        "largest |R_i(j)|",
    )
    pe.add_argument(
        "--top-k", type=int, default=3, metavar="K",
        help="how many subjects to explain when --subject is omitted",
    )
    pe.add_argument(
        "--policy",
        choices=("rank", "ban", "none"),
        default="rank",
        help="reputation policy active during the replayed run",
    )
    pe.add_argument(
        "--delta", type=float, default=-0.5,
        help="ban threshold (only with --policy ban)",
    )
    pe.add_argument(
        "--engine",
        default="bartercast",
        metavar="E1,E2,...",
        help="reputation mechanism(s) to explain under: bartercast, "
        "gossip, ratio.  More than one adds a side-by-side comparison "
        "(why did mechanism A ban this peer when B didn't); the first "
        "named engine drives the replayed run",
    )
    pe.add_argument(
        "--profile",
        choices=("tiny", "fast", "paper"),
        default="fast",
        help="scenario scale: 'fast' (seconds) or 'paper' (full scale, minutes)",
    )
    pe.add_argument("--seed", type=int, default=42, help="root random seed")
    pe.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the explanation(s) as a JSON document to PATH",
    )
    add_faults(pe)
    add_obs(pe)
    pall = sub.add_parser("all", help="regenerate every figure")
    add_common(pall)
    pall.add_argument(
        "--fig4-peers",
        type=int,
        default=None,
        help="fig4 population size (default: 1000, or 5000 for --profile paper)",
    )
    pr = sub.add_parser(
        "report", help="re-render the summary of a stored run manifest"
    )
    pr.add_argument(
        "path",
        metavar="PATH",
        help="an export directory or a run_manifest.json path",
    )
    pm = sub.add_parser(
        "monitor", help="watch a running --jobs sweep from another terminal"
    )
    pm.add_argument(
        "dir",
        nargs="?",
        default=None,
        metavar="DIR",
        help="sweep spool directory (default: REPRO_MONITOR_DIR or the "
        "per-user temp spool)",
    )
    pm.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval",
    )
    pm.add_argument(
        "--once",
        action="store_true",
        help="print the current status once and exit",
    )
    pm.add_argument(
        "--stall-after",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="flag a worker as stalled after this long without a heartbeat",
    )
    pc = sub.add_parser(
        "chrome-trace",
        help="convert a JSONL trace to Chrome trace-event JSON (Perfetto)",
    )
    pc.add_argument("trace", metavar="TRACE", help="JSONL trace written by --trace")
    pc.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: TRACE with a .chrome.json suffix)",
    )
    return parser


def _maybe_export(tables, export_dir) -> None:
    if export_dir is None:
        return
    from repro.analysis.export import write_series

    paths = write_series(tables, export_dir)
    for path in paths:
        print(f"[wrote {path}]")


def _fig1(
    scenario: ScenarioConfig,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    with manifest.phase("fig1"):
        # Inline runs take the same task path as --jobs N so per-run
        # telemetry labels (timeseries/dissemination exports) match
        # across job levels.
        from repro.parallel import fig1_task, run_sweep

        result = run_sweep([fig1_task(scenario)], runner=runner, obs=obs)[0]
    print(report.report_fig1(result))
    from repro.analysis.export import export_fig1

    with manifest.phase("export"):
        _maybe_export(export_fig1(result), export_dir)


def _fig2(
    scenario: ScenarioConfig,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    with manifest.phase("fig2"):
        result = run_fig2(scenario, obs=obs, runner=runner)
    print(report.report_fig2(result))
    from repro.analysis.export import export_fig2

    with manifest.phase("export"):
        _maybe_export(export_fig2(result), export_dir)


def _fig3(
    scenario: ScenarioConfig,
    kind: str,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    from repro.analysis.export import export_fig3

    kinds = ("ignore", "lie") if kind == "both" else (kind,)
    for k in kinds:
        with manifest.phase(f"fig3-{k}"):
            result = run_fig3(scenario, kind=k, obs=obs, runner=runner)
        print(report.report_fig3(result))
        print()
        with manifest.phase("export"):
            _maybe_export(export_fig3(result), export_dir)


def _fig4(
    peers: int,
    seed: int,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    with manifest.phase("fig4"):
        # Same task path inline as under --jobs N (see _fig1).
        from repro.parallel import fig4_task, run_sweep

        result = run_sweep([fig4_task(peers, seed)], runner=runner, obs=obs)[0]
    print(report.report_fig4(result))
    from repro.analysis.export import export_fig4

    with manifest.phase("export"):
        _maybe_export(export_fig4(result), export_dir)


def _faults(
    scenario: ScenarioConfig,
    args: argparse.Namespace,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    from repro.analysis.export import export_faults
    from repro.experiments.faults import run_faults

    if getattr(args, "loss", None) is not None:
        losses = (float(args.loss),)
    else:
        losses = tuple(float(x) for x in args.losses.split(",") if x.strip())
    churns = tuple(
        float(x) for x in str(args.churn).split(",") if x.strip()
    ) or (0.0,)
    engines = tuple(
        x.strip() for x in getattr(args, "engine", "bartercast").split(",")
        if x.strip()
    ) or ("bartercast",)
    if manifest is not None:
        manifest.set_faults(
            {
                "losses": list(losses),
                "churn": churns[0] if len(churns) == 1 else list(churns),
                "dup": args.dup,
                "delay": args.delay,
                **({"engines": list(engines)} if engines != ("bartercast",) else {}),
            }
        )
    with manifest.phase("faults"):
        result = run_faults(
            scenario,
            losses=losses,
            churn=churns[0] if len(churns) == 1 else churns,
            dup=args.dup,
            delay=args.delay,
            delta=args.delta,
            top_k=getattr(args, "top_k", 0),
            obs=obs,
            runner=runner,
            engines=engines,
        )
    print(report.report_faults(result))
    with manifest.phase("export"):
        _maybe_export(export_faults(result), export_dir)


def _explain(
    scenario: ScenarioConfig,
    args: argparse.Namespace,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
) -> int:
    """``repro explain``: replay a scenario with provenance on, then
    decompose ``R_peer(subject)`` into flow paths and claim lineage.
    With ``--engine`` naming several mechanisms, adds the side-by-side
    verdict comparison (why did mechanism A ban this peer when B
    didn't); the first named engine drives the replayed run."""
    import json

    from repro.core.engines import ENGINE_NAMES
    from repro.core.policies import BanPolicy, NoPolicy, RankPolicy
    from repro.experiments.scenario import build_simulation
    from repro.obs.explain import (
        explain_engines,
        explain_reputation,
        render_engine_comparison,
        render_explanation,
        top_subjects,
    )

    engines = tuple(
        x.strip()
        for x in getattr(args, "engine", "bartercast").split(",")
        if x.strip()
    ) or ("bartercast",)
    unknown = [e for e in engines if e not in ENGINE_NAMES]
    if unknown:
        print(
            f"error: unknown engine(s) {', '.join(unknown)} "
            f"(known: {', '.join(ENGINE_NAMES)})",
            file=sys.stderr,
        )
        return 2

    if args.policy == "rank":
        policy = RankPolicy()
    elif args.policy == "ban":
        policy = BanPolicy(delta=args.delta)
    else:
        policy = NoPolicy()

    run_scenario = scenario.with_provenance()
    if engines[0] != run_scenario.engine:
        run_scenario = run_scenario.with_engine(engines[0])
    with manifest.phase("simulate"):
        sim = build_simulation(run_scenario, policy=policy, obs=obs)
        sim.run()
    if args.peer not in sim.nodes:
        print(f"error: peer {args.peer} is not in the population", file=sys.stderr)
        return 2
    node = sim.nodes[args.peer]

    if args.subject is not None:
        if args.subject not in sim.nodes:
            print(
                f"error: subject {args.subject} is not in the population",
                file=sys.stderr,
            )
            return 2
        subjects = [args.subject]
    else:
        candidates = [p for p in sim.nodes if p != args.peer]
        subjects = top_subjects(node, candidates, args.top_k)

    compare = len(engines) > 1 or engines != ("bartercast",)
    explanations = []
    with manifest.phase("explain"):
        for subject in subjects:
            expl = explain_reputation(node, subject)
            print(render_explanation(expl))
            print()
            verdicts = []
            if compare:
                verdicts = explain_engines(node, subject, engines, args.delta)
                print(render_engine_comparison(verdicts))
                print()
            explanations.append((expl, verdicts))
    if sim.provenance is not None:
        manifest.note("provenance_recorder", sim.provenance.summary())
    if sim.dissemination is not None:
        # Why is an evidence edge missing from this peer's subjective
        # view?  Attribute every claim that never reached --peer to the
        # exact drop/wipe events that cut its candidate paths.
        from repro.obs.dissemination import render_attribution

        missing = sim.dissemination.explain_missing(receiver=args.peer)
        if missing:
            print(f"-- missing evidence at peer {args.peer} --")
            for entry in missing:
                print(render_attribution(entry))
            print()
    if args.export is not None:

        def _doc(expl, verdicts):
            d = expl.to_json()
            if verdicts:
                d["engines"] = [v.to_json() for v in verdicts]
            return d

        doc = (
            _doc(*explanations[0])
            if len(explanations) == 1
            else [_doc(e, v) for e, v in explanations]
        )
        path = Path(args.export)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"[wrote {path}]")
    return 0


def _dissemination(
    scenario: ScenarioConfig,
    args: argparse.Namespace,
    export_dir=None,
    obs: Optional[Observability] = None,
    manifest: Optional[ManifestBuilder] = None,
) -> int:
    """``repro dissemination``: run one (typically faulted) scenario with
    dissemination recording forced on, print propagation analytics, and
    attribute undelivered claims to the exact drop/wipe events that cut
    their candidate paths."""
    from repro.analysis.ascii_plot import render_table
    from repro.experiments.scenario import build_simulation
    from repro.obs.dissemination import render_attribution
    from repro.obs.report import render_dissemination

    # Stable single-run label (exports become e.g. dissemination_run.csv).
    if obs.timeseries.enabled:
        obs.timeseries.begin_task("run")
    if obs.dissemination.enabled:
        obs.dissemination.begin_task("run")
    with manifest.phase("simulate"):
        sim = build_simulation(scenario, obs=obs)
        sim.run()
    rec = sim.dissemination
    if rec is None:
        print("error: dissemination recorder was not attached", file=sys.stderr)
        return 2
    print(render_dissemination(obs.dissemination.summary()))
    print()
    stats = rec.claim_stats()
    if stats:
        fracs = rec.config.coverage_fractions
        frac_cols = [f"t{int(round(f * 100))}%" for f in fracs]
        rows = []
        for entry in stats[:12]:
            row = [
                f"{entry['claim'][0]}->{entry['claim'][1]}",
                f"{entry['reached']}/{entry['eligible']}",
                entry["copies"],
                f"{entry['redundancy']:.2f}",
            ]
            for frac in fracs:
                t = entry.get(f"t{int(round(frac * 100))}")
                row.append("-" if t is None else f"{t:.0f}")
            rows.append(tuple(row))
        print("-- per-claim propagation (first 12 claims) --")
        print(
            render_table(
                ["claim", "reached", "copies", "redund"] + frac_cols,
                rows,
                "{}",
            )
        )
        if len(stats) > 12:
            print(f"({len(stats) - 12} more claims in the exported CSV/JSON)")
        print()
    missing = rec.explain_missing()
    if missing:
        limit = args.attributions if args.attributions > 0 else len(missing)
        print("-- fault attribution (undelivered claims) --")
        for entry in missing[:limit]:
            print(render_attribution(entry))
        if len(missing) > limit:
            print(f"({len(missing) - limit} more in the exported JSON)")
    else:
        print("every gossiped claim reached every eligible peer")
    return 0


def _fault_config_from_args(args: argparse.Namespace):
    """The figure commands' ``--loss/--dup/--delay/--churn`` flags as a
    :class:`~repro.faults.FaultConfig`; ``None`` when all are off (so the
    scenario stays byte-identical to a flagless invocation)."""
    from repro.faults import FaultConfig

    cfg = FaultConfig(
        loss=float(getattr(args, "loss", 0.0) or 0.0),
        duplicate=float(getattr(args, "dup", 0.0) or 0.0),
        delay_max=float(getattr(args, "delay", 0.0) or 0.0),
        churn_rate=float(getattr(args, "churn", 0.0) or 0.0),
    )
    if cfg.is_null:
        return None
    cfg.validate()
    return cfg


def _whitewash(seed: int, manifest: ManifestBuilder, runner=None) -> None:
    from repro.analysis.ascii_plot import render_table
    from repro.parallel import run_sweep, whitewash_tasks

    kinds = ("trusted", "static", "adaptive")
    with manifest.phase("whitewash"):
        results = run_sweep(whitewash_tasks(seed, kinds), runner=runner)
    rows = [
        (kind, r.service["newcomer"], r.service["washer"],
         r.washer_advantage, r.identities_burned, r.prior_trajectory[-1])
        for kind, r in zip(kinds, results)
    ]
    print("== Whitewashing defenses (paper 3.5 / future work) ==")
    print(render_table(
        ["stranger policy", "newcomer units", "washer units",
         "washer/newcomer", "ids burned", "final prior"],
        rows, "{:.2f}",
    ))


def _scalability(
    peers: int, seed: int, manifest: ManifestBuilder, runner=None
) -> None:
    from repro.analysis.ascii_plot import render_table
    from repro.experiments import run_scalability

    sizes = [s for s in (1_000, 10_000, 50_000, 100_000) if s <= peers]
    if not sizes or sizes[-1] != peers:
        sizes.append(peers)
    with manifest.phase("scalability"):
        if runner is not None:
            # Internally sequential (the view grows incrementally), so this
            # is one task — pooled only for crash isolation, not speedup.
            from repro.parallel import run_sweep, scalability_task

            result = run_sweep(
                [scalability_task(tuple(sizes), seed)], runner=runner
            )[0]
        else:
            result = run_scalability(sizes=tuple(sizes), seed=seed)
    print("== Scalability of the subjective view ==")
    print(render_table(
        ["known peers", "edges", "query us", "batch us", "warm us", "ingest us/record"],
        [
            (p.num_peers, p.num_edges, p.query_us, p.batch_query_us,
             p.warm_query_us, p.ingest_us)
            for p in result.points
        ],
        "{:.1f}",
    ))
    print(f"query growth factor across sizes: {result.query_growth_factor():.2f}")
    if not math.isnan(result.cache_hit_rate):
        print(f"reputation cache hit rate: {result.cache_hit_rate:.1%}")


def _all_parallel(
    scenario: ScenarioConfig,
    fig4_peers: int,
    seed: int,
    export_dir=None,
    manifest: Optional[ManifestBuilder] = None,
    runner=None,
) -> None:
    """``all`` under ``--jobs N``: one fused task pool across every figure.

    Pooling all figures' sweep points together keeps workers busy across
    figure boundaries (a lone fig1/fig4 task would otherwise serialize the
    sweep).  Reports and exports replay in the exact serial order.
    """
    from repro.analysis.export import export_fig1, export_fig2, export_fig3, export_fig4
    from repro.experiments.fig2 import assemble_fig2, fig2_tasks
    from repro.experiments.fig3 import assemble_fig3, fig3_tasks
    from repro.parallel import fig1_task, fig4_task, run_sweep

    t2 = fig2_tasks(scenario)
    t3a = fig3_tasks(scenario, "ignore")
    t3b = fig3_tasks(scenario, "lie")
    tasks = [fig1_task(scenario)] + t2 + t3a + t3b + [fig4_task(fig4_peers, seed)]
    with manifest.phase("figures"):
        payloads = run_sweep(tasks, runner=runner)
    pos = 1
    fig2_res = assemble_fig2(payloads[pos:pos + len(t2)])
    pos += len(t2)
    fig3_ignore = assemble_fig3(payloads[pos:pos + len(t3a)], "ignore")
    pos += len(t3a)
    fig3_lie = assemble_fig3(payloads[pos:pos + len(t3b)], "lie")
    pos += len(t3b)

    print(report.report_fig1(payloads[0]))
    with manifest.phase("export"):
        _maybe_export(export_fig1(payloads[0]), export_dir)
    print()
    print(report.report_fig2(fig2_res))
    with manifest.phase("export"):
        _maybe_export(export_fig2(fig2_res), export_dir)
    print()
    for fig3_res in (fig3_ignore, fig3_lie):
        print(report.report_fig3(fig3_res))
        print()
        with manifest.phase("export"):
            _maybe_export(export_fig3(fig3_res), export_dir)
    print()
    print(report.report_fig4(payloads[pos]))
    with manifest.phase("export"):
        _maybe_export(export_fig4(payloads[pos]), export_dir)


def _manifest_destination(args: argparse.Namespace) -> Optional[Path]:
    """Where the run manifest should land: next to the export output, or
    next to the trace file; ``None`` when there is no output to annotate."""
    export_dir = getattr(args, "export", None)
    if export_dir is not None:
        if args.command == "explain":
            # explain's --export is a JSON file, not a directory; the
            # manifest lands next to it rather than clobbering it.
            return Path(export_dir).parent / "run_manifest.json"
        return Path(export_dir)
    trace = getattr(args, "trace", None)
    if trace is not None:
        return Path(trace).parent / "run_manifest.json"
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: re-render the summary of a stored manifest.

    Accepts either an export directory or a bare ``run_manifest.json``
    path; a missing file or a schema-version mismatch produces a
    readable error and exit code 2, not a traceback.
    """
    from repro.obs.manifest import MANIFEST_FILENAME, read_manifest
    from repro.obs.report import render_manifest_report

    path = Path(args.path)
    if path.is_dir():
        path = path / MANIFEST_FILENAME
    try:
        doc = read_manifest(path)
    except FileNotFoundError:
        print(f"error: no run manifest at {path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_manifest_report(doc))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``repro monitor``: live view of a running ``--jobs`` sweep."""
    from repro.obs.monitor import resolve_monitor_dir, watch

    return watch(
        resolve_monitor_dir(args.dir),
        interval=args.interval,
        once=args.once,
        stall_after=args.stall_after,
    )


def _cmd_chrome_trace(args: argparse.Namespace) -> int:
    """``repro chrome-trace``: JSONL trace -> Perfetto-loadable JSON."""
    from repro.obs.chrome_trace import write_chrome_trace

    trace = Path(args.trace)
    out = Path(args.out) if args.out else trace.with_suffix(".chrome.json")
    try:
        path = write_chrome_trace(out, trace_path=trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[wrote {path}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    # Utility subcommands read stored artifacts; no run, no observability.
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "chrome-trace":
        return _cmd_chrome_trace(args)
    t0 = time.time()
    obs = make_observability(
        metrics=getattr(args, "metrics", False),
        trace_path=getattr(args, "trace", None),
        trace_sample=getattr(args, "trace_sample", None),
        seed=getattr(args, "seed", 0),
        profile=getattr(args, "prof", False),
        timeseries=getattr(args, "timeseries", None),
        # The dissemination subcommand IS the recording run; force it on.
        dissemination=getattr(args, "dissemination", False)
        or args.command == "dissemination",
    )
    manifest = ManifestBuilder(
        command=args.command,
        args={k: v for k, v in vars(args).items() if k != "command"},
        profile=getattr(args, "profile", None),
        seed=getattr(args, "seed", None),
    )
    export_dir = getattr(args, "export", None)
    jobs = int(getattr(args, "jobs", 1) or 1)
    if jobs > 1 and obs.tracer.enabled:
        print(
            "[parallel] --trace writes a single event stream; forcing --jobs 1",
            file=sys.stderr,
        )
        jobs = 1
    runner = None
    if jobs > 1:
        from repro.parallel import ParallelRunner

        runner = ParallelRunner(
            jobs=jobs, obs=obs, monitor_dir=getattr(args, "monitor_dir", None)
        )
    from repro.obs import provenance_totals_delta, snapshot_provenance_totals
    from repro.obs.profile import activate as _activate_profiler

    prov_base = snapshot_provenance_totals()
    exit_code = 0
    try:
        # Scope the profiler as the process-wide kernel hook for the whole
        # command (a disabled profiler makes this a no-op guard).
        with _activate_profiler(obs.profiler):
            if args.command == "fig4":
                _fig4(args.peers, args.seed, export_dir, obs, manifest, runner)
            elif args.command == "whitewash":
                _whitewash(args.seed, manifest, runner)
            elif args.command == "scalability":
                _scalability(args.peers, args.seed, manifest, runner)
            else:
                scenario = ScenarioConfig.named(args.profile, seed=args.seed)
                if getattr(args, "provenance", False):
                    scenario = scenario.with_provenance()
                manifest.config = (
                    None if scenario is None else _describe_scenario(scenario)
                )
                if args.command != "faults":
                    # The faults sweep builds its own per-point FaultConfig;
                    # figure commands take theirs from the shared flags.
                    fault_cfg = _fault_config_from_args(args)
                    if fault_cfg is not None:
                        scenario = scenario.with_faults(fault_cfg)
                        manifest.set_faults(fault_cfg)
                if args.command == "explain":
                    exit_code = _explain(scenario, args, obs, manifest)
                elif args.command == "dissemination":
                    exit_code = _dissemination(
                        scenario, args, export_dir, obs, manifest
                    )
                elif args.command == "faults":
                    _faults(scenario, args, export_dir, obs, manifest, runner)
                elif args.command == "fig1":
                    _fig1(scenario, export_dir, obs, manifest, runner)
                elif args.command == "fig2":
                    _fig2(scenario, export_dir, obs, manifest, runner)
                elif args.command == "fig3":
                    _fig3(scenario, args.kind, export_dir, obs, manifest, runner)
                elif args.command == "all":
                    fig4_peers = args.fig4_peers
                    if fig4_peers is None:
                        fig4_peers = 1000 if args.profile != "paper" else 5000
                    if runner is not None:
                        _all_parallel(
                            scenario, fig4_peers, args.seed, export_dir,
                            manifest, runner,
                        )
                    else:
                        _fig1(scenario, export_dir, obs, manifest)
                        print()
                        _fig2(scenario, export_dir, obs, manifest)
                        print()
                        _fig3(scenario, "both", export_dir, obs, manifest)
                        print()
                        _fig4(fig4_peers, args.seed, export_dir, obs, manifest)
    finally:
        obs.close()
    prov_delta = provenance_totals_delta(prov_base)
    if prov_delta:
        manifest.note("provenance", prov_delta)
    if runner is not None and runner.run_history:
        manifest.note(
            "parallel",
            runner.run_history[0]
            if len(runner.run_history) == 1
            else runner.run_history,
        )
    if obs.timeseries.enabled:
        manifest.note("timeseries", obs.timeseries.summary())
    if obs.dissemination.enabled:
        manifest.note("dissemination", obs.dissemination.summary())
    if obs.profiler.enabled:
        manifest.note("profile", obs.profiler.summary())
    if obs.metrics.enabled:
        print()
        print(render_report(obs.metrics, wall_seconds=time.time() - t0))
    if obs.profiler.enabled:
        from repro.obs.report import render_profile

        print()
        print(render_profile(obs.profiler.summary()))
    destination = _manifest_destination(args)
    if destination is not None:
        path = manifest.write(destination, metrics=obs.metrics, tracer=obs.tracer)
        print(f"[wrote {path}]")
        out_dir = path.parent
        for ts_path in obs.timeseries.export(out_dir):
            print(f"[wrote {ts_path}]")
        for d_path in obs.dissemination.export(out_dir):
            print(f"[wrote {d_path}]")
        if obs.profiler.enabled and obs.profiler.spans:
            from repro.obs.chrome_trace import write_chrome_trace

            chrome = write_chrome_trace(
                out_dir / "profile_chrome.json",
                profile_spans=obs.profiler.spans,
            )
            print(f"[wrote {chrome}]")
    print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return exit_code


def _describe_scenario(scenario: ScenarioConfig):
    from repro.obs import describe

    return describe(scenario)


if __name__ == "__main__":
    raise SystemExit(main())
