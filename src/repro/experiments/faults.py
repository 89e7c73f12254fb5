"""Fault sweep: reputation quality vs. gossip-plane fault level, per mechanism.

The paper's BarterCast ran over a network that lost, duplicated, and
reordered messages, with a minority of connectable peers and heavy
churn — none of which the reliable simulator exercises.  This experiment
turns the :mod:`repro.faults` layer into measurements: for a grid of
reputation mechanisms (DESIGN.md §15) × loss levels × churn rates
(optionally with duplication and delay layered on top) it runs the
community simulation and reports

* **reputation coverage** — the mean fraction of ground-truth transfer
  edges (between third parties) present in a peer's subjective graph;
  the gossip plane's effectiveness measure.  Falls monotonically with
  loss: with a shared channel RNG the delivered-message sets are nested
  across loss levels.  Coverage is a property of the subjective *graph*,
  not of any scoring function, so it is directly comparable across
  engines (and identical across them — see the engine note below).
* **false-ban rate** — the fraction of (evaluator, sharer) pairs whose
  subjective reputation falls below the engine's *effective* ban
  threshold (``engine.effective_delta(δ)``: the sweep δ itself for the
  arctan-scaled engines, the configured share-ratio floor for ratio
  credit); honest sharers a ban policy would starve because gossip could
  not carry their contribution evidence.
* **rank-inversion rate** — the fraction of (sharer, freerider) pairs
  with higher ground-truth contribution that an evaluator nevertheless
  ranks *below* the freerider.
* **convergence time** — the earliest sampled sim-time from which both
  coverage and the inversion rate stay within
  :data:`CONVERGENCE_TOL` of their end-of-run values (the trace horizon
  when they never settle).  Sampled on the scenario's existing stats
  cadence; sampling only reads state through the normal cache paths, so
  it never changes a measure or an RNG draw.

Engine note: runs use :class:`~repro.core.policies.NoPolicy`, so
reputations are measured but never acted on — the byte flow is identical
across fault levels *and across engines*.  Mechanisms therefore score
the exact same realized history on identical seeded schedules, which is
what makes their false-ban / inversion / convergence numbers an
apples-to-apples comparison (and is why per-engine coverage is equal by
construction: the subjective graphs are the same).

With ``top_k > 0`` each sweep point additionally runs with provenance
recording on and carries :class:`InversionDigest` entries for the K
worst inversions (largest subjective rank gap): who mis-ranked whom,
the ground-truth contributions, the evaluator's maxflow evidence toward
the sharer, and how many gossip claims back that evidence — enough to
see *why* the inversion happened (usually: the sharer's contribution
evidence was lost or never gossiped).  Recording never changes the
measures; the sweep stays bit-identical with ``top_k = 0``.

Runs use :class:`~repro.core.policies.NoPolicy` so the byte flow is
identical across fault levels (reputations are measured, never acted
on) — differences in the three measures isolate the gossip plane.
Every run is audited against the ground-truth envelope
(:func:`~repro.faults.audit.audit_simulation`); violations are carried
in the result and asserted empty by the tests.

All points are independent simulations, so the sweep parallelizes under
``--jobs`` as sweep tasks (:func:`fault_tasks` / :func:`assemble_faults`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.faults import FaultConfig, audit_simulation
from repro.obs import Observability

__all__ = [
    "FaultPoint",
    "FaultsResult",
    "InversionDigest",
    "run_fault_point",
    "fault_tasks",
    "assemble_faults",
    "DEFAULT_LOSSES",
    "DEFAULT_ENGINES",
    "CONVERGENCE_TOL",
]

#: Default loss ladder of the sweep (0 first: the fault-free baseline).
DEFAULT_LOSSES: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

#: Default ban threshold used for the false-ban measure (the paper's
#: middle δ of Figure 2(c)).  Engines translate it into their own score
#: space via ``effective_delta``.
DEFAULT_DELTA = -0.5

#: Default mechanism axis: the paper's engine only.
DEFAULT_ENGINES: Tuple[str, ...] = ("bartercast",)

#: Convergence-time tolerance: a sample counts as converged when both
#: coverage and inversion are within this absolute distance of their
#: end-of-run values.
CONVERGENCE_TOL = 0.01


@dataclass
class InversionDigest:
    """Why one rank inversion happened (the ``top_k`` explain digest).

    ``severity`` is the subjective rank gap ``R_i(freerider) −
    R_i(sharer)`` (how wrong the evaluator's order is);
    ``sharer_inflow/outflow`` are the evaluator's evidence totals toward
    the mis-ranked sharer *under the run's engine*
    (``engine.evidence_flows``: maxflow values for BarterCast, weighted
    / raw volume sums for the aggregation engines), and
    ``sharer_claims`` counts the live gossip claims backing the
    sharer-incident edges of the evaluator's subjective graph (0 ⇒ the
    evidence never arrived).
    """

    evaluator: int
    sharer: int
    freerider: int
    sharer_rep: float
    freerider_rep: float
    sharer_contribution: float
    freerider_contribution: float
    severity: float
    sharer_inflow: float
    sharer_outflow: float
    sharer_claims: int


@dataclass
class FaultPoint:
    """Measurements of one fault level (picklable sweep payload)."""

    loss: float
    churn: float
    duplicate: float
    delay_max: float
    coverage: float
    false_ban_rate: float
    rank_inversion_rate: float
    messages_delivered: int
    messages_dropped: int
    messages_duplicated: int
    messages_delayed: int
    crashes: int
    wipes: int
    audit_violations: int
    #: The ``top_k`` worst inversions of this point (empty when off).
    digests: List[InversionDigest] = field(default_factory=list)
    #: The reputation mechanism this point was measured under.
    engine: str = "bartercast"
    #: Earliest sampled sim-time (seconds) from which coverage and the
    #: inversion rate stay within :data:`CONVERGENCE_TOL` of their final
    #: values; the trace horizon when they never settle (or when the run
    #: produced no samples).
    convergence_time: float = 0.0


@dataclass
class FaultsResult:
    """The assembled sweep: one :class:`FaultPoint` per grid point
    (engine × churn × loss, in :func:`fault_tasks` order)."""

    points: List[FaultPoint]
    delta: float
    profile: str

    @property
    def engines(self) -> Tuple[str, ...]:
        """Mechanisms present, in first-appearance (sweep) order."""
        return tuple(dict.fromkeys(p.engine for p in self.points))

    def points_for(self, engine: str) -> List[FaultPoint]:
        """The sweep points measured under ``engine``, in sweep order."""
        return [p for p in self.points if p.engine == engine]

    @property
    def total_violations(self) -> int:
        """Audit violations across the whole sweep (must be 0)."""
        return sum(p.audit_violations for p in self.points)


# ----------------------------------------------------------------------
# Measures
# ----------------------------------------------------------------------
def _ground_truth(sim) -> Tuple[Set[Tuple[int, int]], Dict[int, float]]:
    """Realized transfer edges and per-peer net contribution.

    Transfer accounting writes both private histories, so the union of
    the nodes' own upload records *is* the realized ground truth — no
    separate bookkeeping needed, and it stays valid under churn (history
    survives a restart; only gossip state is wiped).
    """
    edges: Set[Tuple[int, int]] = set()
    contribution: Dict[int, float] = {}
    for pid, node in sim.nodes.items():
        up_total = 0.0
        down_total = 0.0
        for peer, totals in node.history.items():
            if totals.uploaded > 0:
                edges.add((pid, peer))
            up_total += totals.uploaded
            down_total += totals.downloaded
        contribution[pid] = up_total - down_total
    return edges, contribution


def _coverage(sim, gt_edges: Set[Tuple[int, int]]) -> float:
    """Mean fraction of third-party ground-truth edges a peer knows."""
    fractions: List[float] = []
    for pid in sorted(sim.nodes):
        node = sim.nodes[pid]
        relevant = [e for e in gt_edges if pid not in e]
        if not relevant:
            continue
        known = sum(1 for src, dst in relevant if node.graph.capacity(src, dst) > 0)
        fractions.append(known / len(relevant))
    return sum(fractions) / len(fractions) if fractions else 0.0


def _effective_delta(sim, delta: float) -> float:
    """The sweep δ translated into the run engine's score space.

    All nodes of one simulation run the same engine, so any node's
    :meth:`~repro.core.engines.ReputationEngine.effective_delta`
    answers for the population.  The default engine's mapping is the
    identity, so bartercast measures are bit-identical to pre-zoo runs.
    """
    for node in sim.nodes.values():
        return node.engine.effective_delta(delta)
    return delta


def _reputation_measures(
    sim,
    contribution: Dict[int, float],
    delta: float,
    inversions: Optional[List[Tuple[float, int, int, int, float, float]]] = None,
) -> Tuple[float, float]:
    """(false-ban rate, rank-inversion rate) over the subject population.

    ``delta`` is the sweep's threshold; the comparison uses the engine's
    effective threshold so the false-ban measure is well-defined for
    mechanisms with their own banning convention (not silently wrong for
    non-maxflow engines).  Given an ``inversions`` list, the same walk
    appends every inversion to it as ``(severity, evaluator, sharer,
    freerider, R(sharer), R(freerider))`` for :func:`_inversion_digests`.
    """
    delta = _effective_delta(sim, delta)
    sharers = list(sim.roles.sharers)
    freeriders = list(sim.roles.freeriders)
    subjects = sorted(set(sharers) | set(freeriders))
    ban_pairs = 0
    ban_hits = 0
    inv_pairs = 0
    inv_hits = 0
    for evaluator in subjects:
        node = sim.nodes[evaluator]
        reps = node.reputations_of(p for p in subjects if p != evaluator)
        for s in sharers:
            if s == evaluator:
                continue
            ban_pairs += 1
            if reps[s] < delta:
                ban_hits += 1
        for s in sharers:
            if s == evaluator:
                continue
            for f in freeriders:
                if f == evaluator or contribution[s] <= contribution[f]:
                    continue
                inv_pairs += 1
                if reps[s] < reps[f]:
                    inv_hits += 1
                    if inversions is not None:
                        inversions.append(
                            (reps[f] - reps[s], evaluator, s, f, reps[s], reps[f])
                        )
    false_ban = ban_hits / ban_pairs if ban_pairs else 0.0
    inversion = inv_hits / inv_pairs if inv_pairs else 0.0
    return false_ban, inversion


def _inversion_digests(
    sim,
    inversions: List[Tuple[float, int, int, int, float, float]],
    contribution: Dict[int, float],
    top_k: int,
) -> List[InversionDigest]:
    """The ``top_k`` worst of ``inversions`` (as collected by
    :func:`_reputation_measures`), each with its maxflow/claim evidence.

    Digest order: descending rank gap, then (evaluator, sharer,
    freerider) for determinism.
    """
    worst = heapq.nsmallest(top_k, inversions, key=lambda t: (-t[0], t[1], t[2], t[3]))
    digests: List[InversionDigest] = []
    for severity, evaluator, s, f, rep_s, rep_f in worst:
        node = sim.nodes[evaluator]
        # Evidence under the run's engine: maxflow for bartercast
        # (unchanged from the pre-zoo digests), volume sums for the
        # aggregation engines.
        inflow, outflow = node.engine.evidence_flows(node, s)
        claims = 0
        if node.graph.has_node(s):
            for v in sorted(node.graph.successors(s), key=repr):
                claims += len(node.shared.lineage_of(s, v))
            for v in sorted(node.graph.predecessors(s), key=repr):
                claims += len(node.shared.lineage_of(v, s))
        digests.append(
            InversionDigest(
                evaluator=evaluator,
                sharer=s,
                freerider=f,
                sharer_rep=rep_s,
                freerider_rep=rep_f,
                sharer_contribution=contribution[s],
                freerider_contribution=contribution[f],
                severity=severity,
                sharer_inflow=inflow,
                sharer_outflow=outflow,
                sharer_claims=claims,
            )
        )
    return digests


# ----------------------------------------------------------------------
# One sweep point
# ----------------------------------------------------------------------
def _convergence_time(
    samples: List[Tuple[float, float, float]],
    final_coverage: float,
    final_inversion: float,
    horizon: float,
) -> float:
    """Earliest sampled time from which both measures stay converged.

    Walks the sample trail backwards: the convergence time is the start
    of the longest suffix whose every sample has coverage *and*
    inversion within :data:`CONVERGENCE_TOL` of the final values.  No
    samples, or a last sample still outside tolerance, means the run
    never demonstrably settled — the horizon is reported.
    """
    t = horizon
    for now, cov, inv in reversed(samples):
        if (
            abs(cov - final_coverage) <= CONVERGENCE_TOL
            and abs(inv - final_inversion) <= CONVERGENCE_TOL
        ):
            t = now
        else:
            break
    return t


def run_fault_point(
    scenario: ScenarioConfig,
    faults: FaultConfig,
    delta: float = DEFAULT_DELTA,
    top_k: int = 0,
    obs: Optional[Observability] = None,
    engine: Optional[str] = None,
) -> FaultPoint:
    """Run one (engine, fault level) grid point and compute its measures.

    ``engine`` overrides the scenario's mechanism for this point (sweep
    tasks carry one shared scenario and vary the engine here, keeping
    pickled payloads small).  ``top_k > 0`` turns on provenance
    recording for the point and attaches digests of the K worst rank
    inversions (see module docstring); the measures themselves are
    unaffected.

    Convergence sampling rides the scenario's existing stats sampler —
    no extra events, no RNG use — so measured values (and the default
    engine's whole output) are bit-identical to a run without it.
    """
    point_scenario = scenario.with_faults(faults)
    if engine is not None and engine != point_scenario.engine:
        point_scenario = point_scenario.with_engine(engine)
    if top_k > 0:
        point_scenario = point_scenario.with_provenance()
    sim = build_simulation(point_scenario, obs=obs)

    trail: List[Tuple[float, float, float]] = []

    def _sample_convergence(now: float) -> None:
        edges, contrib = _ground_truth(sim)
        cov = _coverage(sim, edges)
        _, inv = _reputation_measures(sim, contrib, delta)
        trail.append((now, cov, inv))

    sim.add_sampler(_sample_convergence)
    sim.run()
    gt_edges, contribution = _ground_truth(sim)
    coverage = _coverage(sim, gt_edges)
    inversions: List[Tuple[float, int, int, int, float, float]] = []
    false_ban, inversion = _reputation_measures(sim, contribution, delta, inversions)
    digests = _inversion_digests(sim, inversions, contribution, top_k)
    violations = audit_simulation(sim, max_rep_targets=5)
    sim.publish()  # the kernel work of the measures and the audit
    channel = sim.channel
    churn = sim.churn
    return FaultPoint(
        loss=faults.loss,
        churn=faults.churn_rate,
        duplicate=faults.duplicate,
        delay_max=faults.delay_max,
        coverage=coverage,
        false_ban_rate=false_ban,
        rank_inversion_rate=inversion,
        messages_delivered=0 if channel is None else channel.delivered,
        messages_dropped=0 if channel is None else channel.dropped,
        messages_duplicated=0 if channel is None else channel.duplicated,
        messages_delayed=0 if channel is None else channel.delayed,
        crashes=0 if churn is None else churn.crashes,
        wipes=0 if churn is None else churn.wipes,
        audit_violations=len(violations),
        digests=digests,
        engine=point_scenario.engine,
        convergence_time=_convergence_time(
            trail, coverage, inversion, sim.trace.duration
        ),
    )


# ----------------------------------------------------------------------
# Sweep plumbing (serial and --jobs N, bit-identical)
# ----------------------------------------------------------------------
def _sweep_configs(
    losses: Sequence[float], churn: float, dup: float, delay: float
) -> List[FaultConfig]:
    return [
        FaultConfig(
            loss=float(loss), duplicate=float(dup),
            delay_max=float(delay), churn_rate=float(churn),
        )
        for loss in losses
    ]


def _churn_ladder(churn) -> Tuple[float, ...]:
    """Normalize the churn axis: a scalar stays a one-point axis."""
    if isinstance(churn, (int, float)):
        return (float(churn),)
    return tuple(float(c) for c in churn)


def fault_tasks(
    scenario: ScenarioConfig,
    losses: Sequence[float] = DEFAULT_LOSSES,
    churn=0.0,
    dup: float = 0.0,
    delay: float = 0.0,
    delta: float = DEFAULT_DELTA,
    top_k: int = 0,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> List[Any]:
    """The independent sweep tasks over the engine × churn × loss grid:
    :func:`run_fault_point` and its arguments, one task per point.

    Order: engines outermost, then churn, then the loss ladder — so the
    historical single-engine single-churn call produces exactly the old
    task list.  Every task shares one scenario object (small pickles)
    and carries its engine as a parameter; default-engine task ids keep
    the pre-zoo ``faults/loss..._churn...`` format (manifest and series
    labels stay byte-identical), rival engines are prefixed
    ``faults/<engine>/``.
    """
    from repro.parallel import SweepTask

    params_extra = {"top_k": top_k} if top_k > 0 else {}
    tasks: List[Any] = []
    for engine in engines:
        prefix = "faults/" if engine == "bartercast" else f"faults/{engine}/"
        engine_extra = {} if engine == "bartercast" else {"engine": engine}
        for churn_rate in _churn_ladder(churn):
            for cfg in _sweep_configs(losses, churn_rate, dup, delay):
                tasks.append(
                    SweepTask(
                        f"{prefix}loss{cfg.loss:g}_churn{cfg.churn_rate:g}",
                        run_fault_point,
                        {
                            "scenario": scenario, "faults": cfg, "delta": delta,
                            **engine_extra, **params_extra,
                        },
                    )
                )
    return tasks


def assemble_faults(
    payloads: Sequence[FaultPoint],
    delta: float = DEFAULT_DELTA,
    profile: str = "",
) -> FaultsResult:
    """Merge per-task payloads (in :func:`fault_tasks` order)."""
    return FaultsResult(points=list(payloads), delta=delta, profile=profile)
