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
    Collect the run's counters (messages, records, transfers, bytes,
    faults, cache and kernel totals) and print a summary report; where
    the time went is ``--prof``'s answer.
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
    Profile run phases, engine events and reputation evaluations (wall
    + CPU; evaluations timed per call at the node, labelled
    ``<engine>.scalar|batch``); prints a profile section and stores it
    in the manifest.  Phase spans additionally land in
    ``profile_chrome.json`` for Perfetto.
``--dissemination``
    Record the gossip event log (every message's records, and its
    sends, deliveries, drops, duplicates, delays and churn wipes) during
    the run.  Never feeds back into behaviour — results stay
    bit-identical.  The ``dissemination`` subcommand runs one faulted
    scenario with recording forced on and prints propagation analytics
    (time-to-coverage, hop counts, redundancy) plus fault attribution
    for undelivered claims; those per-claim statistics (not the log)
    are exported as CSV + JSON beside the run manifest.

When ``--export DIR`` or ``--trace`` is given, a ``run_manifest.json``
capturing config, seed, code revision, per-phase wall time, and the final
metrics snapshot is written next to the output.  Instrumentation never
changes results: an instrumented run is bit-identical to a plain one.

A flag no run can honour (``--loss 1.5``, ``--engine foo``, ``--jobs 0``,
...) is a usage error: exit status 2 and one ``error:`` line, before
anything runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

from repro.analysis import export as series
from repro.analysis.ascii_plot import render_table
from repro.core.engines import make_engine
from repro.core.policies import BanPolicy
from repro.deployment.network import DeploymentParams
from repro.experiments import (
    ScenarioConfig,
    assemble_faults,
    assemble_fig2,
    assemble_fig3,
    fault_tasks,
    fig1_task,
    fig2_tasks,
    fig3_tasks,
    fig4_task,
    report,
    scalability_task,
    whitewash_tasks,
)
from repro.faults import FaultConfig
from repro.obs import (
    ManifestBuilder,
    describe,
    make_observability,
    parse_sample_spec,
    render_attribution,
)
from repro.parallel import ParallelRunner, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bartercast",
        description="Regenerate the figures of the BarterCast paper (IPDPS 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups: every subcommand is a name, a help line and the groups
    # it takes (plus whatever only it has).
    def scale(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile",
            choices=("tiny", "fast", "paper"),
            default="fast",
            help="scenario scale: 'fast' (seconds) or 'paper' (full scale, minutes)",
        )

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="root random seed")

    def export(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--export",
            metavar="DIR",
            default=None,
            help="also write the series as TSV files into DIR",
        )

    def copies(p: argparse.ArgumentParser) -> None:
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

    def faults(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--loss",
            type=float,
            default=0.0,
            metavar="P",
            help="per-message gossip drop probability (0 = reliable channel)",
        )
        copies(p)
        p.add_argument(
            "--churn",
            type=float,
            default=0.0,
            metavar="RATE",
            help="abrupt peer restarts per peer per simulated day "
            "(0 = no churn)",
        )

    def mechanism(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            default="bartercast",
            metavar="E1,E2,...",
            help="comma-separated reputation mechanisms, run on identical "
            "seeded schedules: bartercast, gossip, ratio (DESIGN.md §15).  "
            "'explain' replays under the first and, given more than one, "
            "adds a side-by-side comparison (why did mechanism A ban this "
            "peer when B didn't)",
        )
        p.add_argument(
            "--delta",
            type=float,
            default=-0.5,
            help="ban threshold: of the ban policy, of the false-ban "
            "measure and of the per-mechanism verdicts",
        )

    def provenance(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--provenance",
            action="store_true",
            help="record claim lineage during the run (for 'explain'; "
            "never changes results)",
        )

    def obs(p: argparse.ArgumentParser) -> None:
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
            help="profile phases, events and reputation evaluations "
            "(wall+CPU) and print/store a profile section",
        )
        p.add_argument(
            "--dissemination",
            action="store_true",
            help="record the gossip event log (per-claim coverage, hops, "
            "redundancy + fault attribution; never changes results)",
        )

    def command(name: str, help: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for group in groups:
            group(p)
        return p

    figure = (scale, seed, export, faults, provenance, obs)
    command("fig1", "contribution vs reputation", *figure)
    command("fig2", "rank/ban policy effectiveness", *figure)
    p3 = command("fig3", "disobeying the message protocol", *figure)
    p3.add_argument(
        "--kind",
        choices=("ignore", "lie", "both"),
        default="both",
        help="manipulation type (panel a: ignore, panel b: lie)",
    )
    p4 = command("fig4", "deployment measurement", seed, export, obs)
    p4.add_argument("--peers", type=int, default=5000, help="population size")
    command("whitewash", "stranger-policy trade-off (paper 3.5)", seed, obs)
    ps = command(
        "scalability", "subjective-view scaling up to 100k peers", seed, obs
    )
    ps.add_argument("--peers", type=int, default=100_000, help="largest view size")
    # The fault sweep's --loss / --churn are ladders, not the figure
    # commands' single rates; --dup / --delay apply at every sweep point.
    pf = command(
        "faults",
        "reputation quality vs gossip-plane fault level",
        scale, seed, export, copies, mechanism, provenance, obs,
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
        "--top-k",
        type=int,
        default=0,
        metavar="K",
        help="report the K worst rank inversions per sweep point with "
        "reputation/contribution digests (0 = off; implies per-point "
        "provenance recording)",
    )
    pd = command(
        "dissemination",
        "trace per-claim gossip dissemination under faults "
        "(coverage, hops, redundancy, fault attribution)",
        *figure,
    )
    pd.add_argument(
        "--attributions",
        type=int,
        default=5,
        metavar="K",
        help="how many undelivered claims to attribute to exact "
        "drop/wipe events (0 = all)",
    )
    pe = command(
        "explain",
        "decompose one subjective reputation into paths and claim lineage",
        scale, seed, faults, mechanism, obs,
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
        "--export",
        metavar="PATH",
        default=None,
        help="also write the explanation(s) as a JSON document to PATH",
    )
    pall = command("all", "regenerate every figure", *figure)
    pall.add_argument(
        "--fig4-peers",
        type=int,
        default=None,
        help="fig4 population size (default: 1000, or 5000 for --profile paper)",
    )
    pr = command("report", "re-render the summary of a stored run manifest")
    pr.add_argument(
        "path",
        metavar="PATH",
        help="an export directory or a run_manifest.json path",
    )
    pc = command(
        "chrome-trace",
        "convert a JSONL trace to Chrome trace-event JSON (Perfetto)",
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


# ----------------------------------------------------------------------
# Task-shaped commands: panels walked serially or through one pool
# ----------------------------------------------------------------------
class _Panel(NamedTuple):
    """One printed result: the sweep tasks that produce it and what turns
    their payloads (in task order) into stdout and exported series."""

    phase: str  #: manifest phase the tasks' wall time is booked under
    tasks: Sequence[Any]
    assemble: Callable[[List[Any]], Any]
    report: Callable[[Any], str]
    export: Optional[Callable[[Any], dict]] = None


#: ``assemble`` of a single-task panel: the task's payload is the result.
_first = itemgetter(0)


def _fig3_panels(scenario: ScenarioConfig, args: argparse.Namespace) -> List[_Panel]:
    kind = getattr(args, "kind", "both")
    return [
        _Panel(
            f"fig3-{k}",
            fig3_tasks(scenario, k),
            lambda payloads, k=k: assemble_fig3(payloads, k),
            lambda result: report.report_fig3(result) + "\n",
            series.export_fig3,
        )
        for k in (("ignore", "lie") if kind == "both" else (kind,))
    ]


def _fig4_peers(args: argparse.Namespace) -> int:
    if args.command == "fig4":
        return args.peers
    if args.fig4_peers is not None:
        return args.fig4_peers
    return 1000 if args.profile != "paper" else 5000


#: Figure name -> its panels, given the scenario and the parsed flags.
#: ``repro all`` is every row, top to bottom.
_FIGURES = {
    "fig1": lambda scenario, args: [
        _Panel("fig1", [fig1_task(scenario)], _first,
               report.report_fig1, series.export_fig1)
    ],
    "fig2": lambda scenario, args: [
        _Panel("fig2", fig2_tasks(scenario), assemble_fig2,
               report.report_fig2, series.export_fig2)
    ],
    "fig3": _fig3_panels,
    "fig4": lambda scenario, args: [
        _Panel("fig4", [fig4_task(_fig4_peers(args), args.seed)], _first,
               report.report_fig4, series.export_fig4)
    ],
}


def _walk(
    figures: Sequence[Sequence[_Panel]],
    args: argparse.Namespace,
    manifest: ManifestBuilder,
    runner: ParallelRunner,
) -> None:
    """Run every panel's tasks, then print and export panel by panel.

    Serially each panel runs when its turn comes.  Under ``--jobs N``
    several figures' tasks are fused into one pool first, so workers stay
    busy across figure boundaries (a lone fig1/fig4 task would otherwise
    serialize the sweep); reports and exports replay in the same order
    either way.  Inline runs take the same task path as pooled ones, so
    per-run telemetry labels match across job levels.
    """
    pooled = None
    if runner.jobs > 1 and len(figures) > 1:
        tasks = [t for figure in figures for panel in figure for t in panel.tasks]
        with manifest.phase("figures"):
            pooled = iter(run_sweep(tasks, runner=runner))
    for i, figure in enumerate(figures):
        if i:
            print()
        for panel in figure:
            if pooled is not None:
                payloads = list(islice(pooled, len(panel.tasks)))
            else:
                with manifest.phase(panel.phase):
                    payloads = run_sweep(panel.tasks, runner=runner)
            result = panel.assemble(payloads)
            print(panel.report(result))
            if panel.export is not None:
                with manifest.phase("export"):
                    tables = panel.export(result)
                    if args.export is not None:
                        for path in series.write_series(tables, args.export):
                            print(f"[wrote {path}]")


def _scenario(
    args: argparse.Namespace, manifest: ManifestBuilder, shared_faults: bool = True
) -> ScenarioConfig:
    """The scenario the flags describe, noted in the manifest.

    ``shared_faults`` applies the figure commands' ``--loss/--dup/--delay/
    --churn``; with all four at zero the scenario carries no fault config
    at all, so it stays byte-identical to a flagless invocation.
    """
    scenario = ScenarioConfig.named(args.profile, seed=args.seed)
    if getattr(args, "provenance", False):
        scenario = scenario.with_provenance()
    manifest.config = describe(scenario)
    if shared_faults:
        cfg = _fault_config(args, args.loss, args.churn)
        if not cfg.is_null:
            scenario = scenario.with_faults(cfg)
            manifest.set_faults(cfg)
    return scenario


def _fault_config(args: argparse.Namespace, loss: float, churn: float) -> FaultConfig:
    """``--dup/--delay`` at one loss and churn level."""
    return FaultConfig(
        loss=loss, duplicate=args.dup, delay_max=args.delay, churn_rate=churn
    )


def _figures(args, manifest, runner) -> None:
    """``fig1`` .. ``fig4`` and ``all``: rows of :data:`_FIGURES`."""
    scenario = None if args.command == "fig4" else _scenario(args, manifest)
    names = list(_FIGURES) if args.command == "all" else [args.command]
    _walk([_FIGURES[name](scenario, args) for name in names], args, manifest, runner)


def _csv(text, convert=float) -> tuple:
    return tuple(convert(x) for x in str(text).split(",") if x.strip())


def _engines(args: argparse.Namespace) -> tuple:
    return _csv(args.engine, str.strip) or ("bartercast",)


def _ladders(args: argparse.Namespace) -> tuple:
    """The fault sweep's loss and churn ladders."""
    losses = (args.loss,) if args.loss is not None else _csv(args.losses)
    return losses, _csv(args.churn) or (0.0,)


def _faults(args, manifest, runner) -> None:
    scenario = _scenario(args, manifest, shared_faults=False)
    losses, churns = _ladders(args)
    churn = churns[0] if len(churns) == 1 else churns
    engines = _engines(args)
    manifest.set_faults(
        {
            "losses": losses,
            "churn": churn,
            "dup": args.dup,
            "delay": args.delay,
            **({"engines": engines} if engines != ("bartercast",) else {}),
        }
    )
    panel = _Panel(
        "faults",
        fault_tasks(
            scenario, losses, churn, args.dup, args.delay, args.delta,
            args.top_k, engines=engines,
        ),
        lambda payloads: assemble_faults(
            payloads, delta=args.delta, profile=scenario.name
        ),
        report.report_faults,
        series.export_faults,
    )
    _walk([[panel]], args, manifest, runner)


def _whitewash(args, manifest, runner) -> None:
    panel = _Panel(
        "whitewash", whitewash_tasks(args.seed), list, report.report_whitewash
    )
    _walk([[panel]], args, manifest, runner)


def _scalability(args, manifest, runner) -> None:
    sizes = [s for s in (1_000, 10_000, 50_000, 100_000) if s <= args.peers]
    if not sizes or sizes[-1] != args.peers:
        sizes.append(args.peers)
    # Internally sequential (the view grows incrementally), so this is
    # one task.
    panel = _Panel(
        "scalability",
        [scalability_task(sizes, args.seed)],
        _first,
        report.report_scalability,
    )
    _walk([[panel]], args, manifest, runner)


# ----------------------------------------------------------------------
# Commands that need the live simulation, not just its payload
# ----------------------------------------------------------------------
def _explain(args, manifest, runner) -> int:
    """``repro explain``: replay a scenario with provenance on, then
    decompose ``R_peer(subject)`` into flow paths and claim lineage.
    With ``--engine`` naming several mechanisms, adds the side-by-side
    verdict comparison (why did mechanism A ban this peer when B
    didn't); the first named engine drives the replayed run."""
    from repro.core.policies import NoPolicy, RankPolicy
    from repro.experiments.scenario import build_simulation
    from repro.obs.explain import (
        explain_engines,
        explain_reputation,
        render_engine_comparison,
        render_explanation,
        top_subjects,
    )

    engines = _engines(args)
    if args.policy == "rank":
        policy = RankPolicy()
    elif args.policy == "ban":
        policy = BanPolicy(delta=args.delta)
    else:
        policy = NoPolicy()

    run_scenario = _scenario(args, manifest).with_provenance()
    if engines[0] != run_scenario.engine:
        run_scenario = run_scenario.with_engine(engines[0])
    with manifest.phase("simulate"):
        sim = build_simulation(run_scenario, policy=policy, obs=runner.obs)
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
    sim.publish()  # the kernel work of the explanations
    if sim.dissemination is not None:
        # Why is an evidence edge missing from this peer's subjective
        # view?  Attribute every claim that never reached --peer to the
        # exact drop/wipe events that cut its candidate paths.
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


def _dissemination(args, manifest, runner) -> int:
    """``repro dissemination``: run one (typically faulted) scenario with
    dissemination recording forced on, print propagation analytics, and
    attribute undelivered claims to the exact drop/wipe events that cut
    their candidate paths."""
    from repro.experiments.scenario import build_simulation
    from repro.obs.report import render_dissemination

    scenario = _scenario(args, manifest)
    obs = runner.obs
    # Stable single-run label (exports become e.g. dissemination_run.csv).
    obs.begin_task("run")
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


def _manifest_destination(args: argparse.Namespace) -> Optional[Path]:
    """Where the run manifest should land: next to the export output, or
    next to the trace file; ``None`` when there is no output to annotate."""
    from repro.obs.manifest import MANIFEST_FILENAME

    export_dir = getattr(args, "export", None)
    if export_dir is not None:
        if args.command == "explain":
            # explain's --export is a JSON file, not a directory; the
            # manifest lands next to it rather than clobbering it.
            return Path(export_dir).parent / MANIFEST_FILENAME
        return Path(export_dir) / MANIFEST_FILENAME
    trace = getattr(args, "trace", None)
    if trace is not None:
        return Path(trace).parent / MANIFEST_FILENAME
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


#: Subcommands that read stored artifacts: no run, no observability.
_UTILITIES = {"report": _cmd_report, "chrome-trace": _cmd_chrome_trace}

#: Subcommands that run something: ``handler(args, manifest, runner)``
#: returning an exit code (``None`` = 0).
_COMMANDS = {
    **dict.fromkeys(("fig1", "fig2", "fig3", "fig4", "all"), _figures),
    "whitewash": _whitewash,
    "scalability": _scalability,
    "faults": _faults,
    "dissemination": _dissemination,
    "explain": _explain,
}


def _check(args: argparse.Namespace) -> None:
    """Put every flag of a run through the validator that owns its rule,
    before anything runs; a bad flag raises ``ValueError``."""
    if args.trace_sample is not None:
        parse_sample_spec(args.trace_sample)
    faults = []
    if args.command == "faults":
        losses, churns = _ladders(args)
        if not losses:
            raise ValueError("--losses names no loss level")
        faults = [
            _fault_config(args, loss, churn) for loss in losses for churn in churns
        ]
    elif hasattr(args, "loss"):
        faults = [_fault_config(args, args.loss, args.churn)]
    for cfg in faults:
        cfg.validate()
    if hasattr(args, "engine"):
        for engine in _engines(args):
            make_engine(engine)
    if hasattr(args, "delta"):
        BanPolicy(delta=args.delta)
    if args.command in ("fig4", "all"):
        DeploymentParams(num_peers=_fig4_peers(args)).validate()
    if args.command == "scalability" and args.peers < 1:
        raise ValueError(f"--peers must be positive, got {args.peers}")
    if args.command == "explain" and args.subject == args.peer:
        raise ValueError("--subject must differ from --peer")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in _UTILITIES:
        return _UTILITIES[args.command](args)
    try:
        _check(args)
        runner = ParallelRunner(jobs=args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.time()
    obs = runner.obs = make_observability(
        metrics=args.metrics,
        trace_path=args.trace,
        trace_sample=args.trace_sample,
        seed=args.seed,
        profile=args.prof,
        timeseries=args.timeseries,
        # The dissemination subcommand IS the recording run; force it on.
        dissemination=args.dissemination or args.command == "dissemination",
    )
    manifest = ManifestBuilder(
        command=args.command,
        args={k: v for k, v in vars(args).items() if k != "command"},
        profile=getattr(args, "profile", None),
        seed=args.seed,
    )
    if runner.jobs > 1 and obs.spec() is None:
        print(
            "[parallel] --trace writes a single event stream; forcing --jobs 1",
            file=sys.stderr,
        )
    try:
        exit_code = _COMMANDS[args.command](args, manifest, runner) or 0
    finally:
        obs.close()
    if runner.jobs > 1 and runner.run_history:
        manifest.note(
            "parallel",
            runner.run_history[0]
            if len(runner.run_history) == 1
            else runner.run_history,
        )
    for key, summary in obs.notes():
        manifest.note(key, summary)
    for text in obs.renders():
        print()
        print(text)
    destination = _manifest_destination(args)
    if destination is not None:
        path = manifest.write(destination, metrics=obs.metrics, tracer=obs.tracer)
        print(f"[wrote {path}]")
        for artifact in obs.export(path.parent):
            print(f"[wrote {artifact}]")
    print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
