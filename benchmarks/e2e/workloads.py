"""The five workloads: what each sets up, what it times, what it checks.

Every workload is a closed loop of one simulation (or one query
session) per iteration.  ``setup(seed, profile, workdir)`` does
everything a run needs before the clock starts and returns the state;
``run(state, span)`` is the timed phase and returns an :class:`Outcome`.
The seed is the only source of input variation; the program under test
sees only the generated scenario.

Why each workload exists is recorded in ``WHY`` (and, at length, in
README.md): two workloads share the gossip layer but use it differently,
one leans on the BitTorrent round and the policy's reputation queries,
one isolates the reputation graph and cache, and one turns every
default-off observability leg on against the same 10 s run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from probes import null_span
from repro.analysis.export import export_fig1
from repro.core.messages import BarterCastMessage, HistoryRecord
from repro.core.node import BarterCastNode
from repro.core.policies import BanPolicy, NoPolicy
from repro.core.reputation import MB
from repro.experiments.faults import run_fault_point
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import speed_series_kbps
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.faults import FaultConfig
from repro.obs import make_observability
from repro.sim.rng import RngRegistry
from repro.traces.models import DAY

__all__ = ["WORKLOADS", "WHY", "Workload", "Outcome", "Community"]

WHY: Dict[str, str] = {
    "gossip_fast": "fig1 fast profile under NoPolicy: ~85% of host time is the gossip round, so any gossip-path change must show here",
    "swarm_ban_paper": "paper population, 10 s rechoke, gossip thinned tenfold, BanPolicy: BitTorrent round and reputation queries do the work",
    "faults_fast": "same gossip layer under loss, duplication, delay and churn: reject, wipe and delayed-delivery paths beside the reads",
    "rep_scale_30k": "one node, 30k-peer view: only graph, maxflow and the node cache work; mixed ingest+rank phase is the choke-round steady state",
    "gossip_fast_obs": "gossip_fast with every default-off observability leg on; result must equal gossip_fast byte for byte",
}


@dataclass
class Outcome:
    """What one timed phase produced."""

    #: SHA-256 of the canonical result bytes.
    digest: str
    #: Simulated statistics — repeat exactly for a fixed seed.
    stats: Dict[str, float] = field(default_factory=dict)
    #: ``(name, passed)`` invariants the result itself must satisfy.
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Per-layer values readable from the result object.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Result vectors kept for element-wise comparison with another run.
    raw: Dict[str, np.ndarray] = field(default_factory=dict)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _f64(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


#: The community every simulator workload runs on.
POPULATION_SEED = 3


@dataclass
class Community(ScenarioConfig):
    """A scenario on a fixed community.

    The trace and the role split are the data set — one community, as
    the paper has one filelist.org trace — and come from
    ``POPULATION_SEED``; ``seed`` draws only the protocol's randomness
    (optimistic unchokes, gossip order, BuddyCast sampling, the fault
    schedule).  A 40-100 peer community generated afresh per seed
    changes the amount of work by 10-60 % from seed to seed, which would
    bury any regression bound; at ``seed == POPULATION_SEED`` this is
    exactly the scenario the figure drivers run.
    """

    @classmethod
    def of(cls, base: ScenarioConfig) -> "Community":
        return cls(**{f.name: getattr(base, f.name) for f in dataclasses.fields(base)})

    def _population(self) -> "Community":
        return replace(self, seed=POPULATION_SEED)

    def make_trace(self):
        return ScenarioConfig.make_trace(self._population())

    def make_roles(self, trace, *args, **kwargs):
        return ScenarioConfig.make_roles(self._population(), trace, *args, **kwargs)


def _scenario(profile: str, seed: int) -> Community:
    return Community.of(ScenarioConfig.fast(seed) if profile == "full" else ScenarioConfig.tiny(seed))


# ----------------------------------------------------------------------
# gossip_fast / gossip_fast_obs
# ----------------------------------------------------------------------
def fig1_outcome(result) -> Outcome:
    tables = export_fig1(result)
    digest = _sha(
        *(
            name.encode() + repr(tables[name]["header"]).encode() + _f64(tables[name]["rows"])
            for name in sorted(tables)
        )
    )
    return Outcome(
        digest,
        stats={
            "rep_spearman": float(result.spearman),
            "rep_separation": result.final_separation,
        },
    )


def _setup_gossip_fast(seed: int, profile: str, workdir: str):
    scenario = _scenario(profile, seed)
    # run_fig1 builds its simulator itself; this throwaway build is what
    # makes set-up time cover trace generation, role split and
    # construction.
    build_simulation(scenario, policy=NoPolicy())
    return scenario


def _run_gossip_fast(scenario, span) -> Outcome:
    with span("experiments.run"):
        return fig1_outcome(run_fig1(scenario))


OBS_PHASES = ("bt.round", "bt.round/choke", "bt.round/transfer", "gossip")


def _setup_gossip_fast_obs(seed: int, profile: str, workdir: str):
    scenario = _scenario(profile, seed).with_provenance()
    build_simulation(scenario, policy=NoPolicy())
    return scenario, os.path.join(workdir, "obs_trace.jsonl")


def _run_gossip_fast_obs(state, span) -> Outcome:
    scenario, trace_path = state
    obs = make_observability(
        metrics=True,
        trace_path=trace_path,
        trace_sample=0.1,
        seed=scenario.seed,
        profile=True,
        timeseries=0,
        dissemination=True,
    )
    try:
        with span("experiments.run"):
            result = run_fig1(scenario, obs=obs)
    finally:
        obs.close()
    outcome = fig1_outcome(result)
    trace_bytes = os.path.getsize(trace_path)
    series = len(obs.metrics.names())
    phases = obs.profiler.snapshot()["phases"]
    outcome.layer = {
        "obs.trace.bytes_written": float(trace_bytes),
        "obs.metrics.series": float(series),
        # The program's own phase profile, as a cross-check of the
        # outside spans of gossip_fast.
        **{
            f"obs.profiler.phase.{name.replace('/', '.')}.wall_s": float(phases[name]["wall_s"])
            for name in OBS_PHASES
            if name in phases
        },
    }
    outcome.checks = [
        ("obs trace written", trace_bytes > 0),
        ("obs metrics registered", series > 0),
        ("obs profiler saw phases", bool(phases)),
    ]
    return outcome


# ----------------------------------------------------------------------
# swarm_ban_paper
# ----------------------------------------------------------------------
def _setup_swarm_ban_paper(seed: int, profile: str, workdir: str):
    if profile == "full":
        scenario = ScenarioConfig.paper(seed)
        scenario = replace(
            scenario, trace_params=replace(scenario.trace_params, duration=1 * DAY)
        )
    else:
        scenario = ScenarioConfig.tiny(seed)
    scenario = replace(scenario, bt_config=replace(scenario.bt_config, gossip_interval=600.0))
    return build_simulation(Community.of(scenario), policy=BanPolicy(-0.5))


def _final_ratio(sharers: np.ndarray, freeriders: np.ndarray) -> float:
    valid = np.flatnonzero(~(np.isnan(sharers) | np.isnan(freeriders)) & (sharers != 0))
    return float(freeriders[valid[-1]] / sharers[valid[-1]]) if valid.size else math.nan


def _run_swarm_ban_paper(sim, span) -> Outcome:
    with span("experiments.run"):
        stats = sim.run()
        days, sharers = speed_series_kbps(stats, sim.roles.sharers)
        _, freeriders = speed_series_kbps(stats, sim.roles.freeriders)
    return Outcome(
        _sha(_f64(days), _f64(sharers), _f64(freeriders), _f64(stats.uploaded), _f64(stats.downloaded)),
        stats={"freerider_speed_ratio": _final_ratio(sharers, freeriders)},
    )


# ----------------------------------------------------------------------
# faults_fast
# ----------------------------------------------------------------------
FAULTS = FaultConfig(loss=0.25, duplicate=0.1, delay_max=600, churn_rate=0.5)


def _setup_faults_fast(seed: int, profile: str, workdir: str):
    scenario = _scenario(profile, seed)
    build_simulation(scenario.with_faults(FAULTS))
    return scenario


def _run_faults_fast(scenario, span) -> Outcome:
    with span("experiments.run"):
        point = run_fault_point(scenario, FAULTS)
    fields = dataclasses.asdict(point)
    return Outcome(
        _sha(repr(sorted(fields.items())).encode()),
        stats={
            "edge_coverage": point.coverage,
            "false_ban_rate": point.false_ban_rate,
            "rank_inversion_rate": point.rank_inversion_rate,
        },
        checks=[("audit_violations == 0", point.audit_violations == 0)],
        layer={
            "faults.channel.delivered": float(point.messages_delivered),
            "faults.channel.dropped": float(point.messages_dropped),
            "faults.channel.duplicated": float(point.messages_duplicated),
            "faults.channel.delayed": float(point.messages_delayed),
            "faults.churn.crashes": float(point.crashes),
            "faults.churn.wipes": float(point.wipes),
        },
    )


# ----------------------------------------------------------------------
# rep_scale_30k
# ----------------------------------------------------------------------
#: Per-phase operation counts, fixed so the timed phase of the ``full``
#: profile takes ~10 s on the reference host.  ``batches`` are 50-target
#: ``reputations_of`` calls, each made cold and then warm; ``mixed`` is
#: ``[receive_message(fresh); rank_by_reputation(50)]`` iterations.
REP_COUNTS = {
    "full": {"peers": 30_000, "scalar": 200_000, "batches": 6_000, "mixed": 20_000},
    "tiny": {"peers": 1_000, "scalar": 2_000, "batches": 60, "mixed": 200},
}
REP_DEGREE = 10
REP_BATCH = 50
REP_OWN_PARTNERS = 50


@dataclass
class RepScalePlan:
    """Seed-derived inputs of one ``rep_scale_30k`` iteration.

    The plan is independent of the node's backend, so two backends can
    replay it and must agree bit for bit.
    """

    own: List[Tuple[int, float, float]]
    view: List[BarterCastMessage]
    scalar_targets: List[int]
    batches: List[List[int]]
    fresh: List[BarterCastMessage]
    candidates: List[List[int]]

    def prefix(self, share: float) -> "RepScalePlan":
        """The leading ``share`` of every timed phase (same view)."""
        cut = lambda seq: seq[: max(1, int(len(seq) * share))]
        return replace(
            self,
            scalar_targets=cut(self.scalar_targets),
            batches=cut(self.batches),
            fresh=cut(self.fresh),
            candidates=cut(self.candidates),
        )


def _messages(gen, senders: np.ndarray, highs: np.ndarray) -> List[BarterCastMessage]:
    """One message per sender reporting ``REP_DEGREE`` counterparties
    drawn below ``highs`` — the shape ``experiments.scalability`` grows
    its view with (bounded messages keep per-peer degree constant)."""
    shape = (len(senders), REP_DEGREE)
    counterparties = gen.integers(0, highs[:, None], size=shape)
    up = gen.uniform(1, 500, size=shape) * MB
    down = gen.uniform(1, 500, size=shape) * MB
    return [
        BarterCastMessage(
            sender=pid,
            created_at=float(pid),
            records=tuple(
                HistoryRecord(counterparty=c, uploaded=u, downloaded=d)
                for c, u, d in zip(cs, us, ds)
                if c != pid
            ),
        )
        for pid, cs, us, ds in zip(
            senders.tolist(), counterparties.tolist(), up.tolist(), down.tolist()
        )
    ]


def make_rep_plan(seed: int, profile: str) -> RepScalePlan:
    counts = REP_COUNTS[profile]
    n = counts["peers"]
    gen = RngRegistry(seed).stream("e2e.rep_scale").generator
    own = [
        (pid, float(gen.uniform(10, 1000)) * MB, float(gen.uniform(10, 1000)) * MB)
        for pid in range(REP_OWN_PARTNERS)
    ]
    senders = np.arange(n)
    view = _messages(gen, senders, np.maximum(senders, 1))
    # Half the targets lie within two hops of the evaluator (its own
    # partners and whoever exchanged with them), half are uniform: the
    # near half has flow to carry, the far half is mostly the zero path.
    near = set(range(REP_OWN_PARTNERS))
    for message in view:
        if message.sender < REP_OWN_PARTNERS:
            near.update(r.counterparty for r in message.records)
        elif any(r.counterparty < REP_OWN_PARTNERS for r in message.records):
            near.add(message.sender)
    near_ids = np.array(sorted(near))

    def targets(size: int) -> np.ndarray:
        picks = np.where(
            gen.random(size) < 0.5,
            near_ids[gen.integers(0, len(near_ids), size=size)],
            gen.integers(0, n, size=size),
        )
        return picks

    scalar_targets = targets(counts["scalar"]).tolist()
    batches = targets(counts["batches"] * REP_BATCH).reshape(-1, REP_BATCH).tolist()
    fresh_senders = np.arange(n, n + counts["mixed"])
    fresh = _messages(gen, fresh_senders, np.full(counts["mixed"], n))
    candidates = targets(counts["mixed"] * REP_BATCH).reshape(-1, REP_BATCH).tolist()
    return RepScalePlan(own, view, scalar_targets, batches, fresh, candidates)


def _resident_mb() -> float:
    """Current resident set (MiB); NaN where /proc is not available."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        return math.nan


def build_rep_node(plan: RepScalePlan, backend: str = None) -> Tuple[BarterCastNode, Dict[str, float]]:
    """The evaluator with its view ingested, and what building it cost
    (ingest microseconds per record, edges stored, resident memory
    grown).
    ``backend=None`` is the node's default."""
    before = _resident_mb()
    node = BarterCastNode(-1) if backend is None else BarterCastNode(-1, graph_backend=backend)
    for pid, down, up in plan.own:
        node.record_download(pid, down, now=float(pid))
        node.record_upload(pid, up, now=float(pid))
    records = sum(m.num_records for m in plan.view)
    t0 = time.perf_counter()
    for message in plan.view:
        node.receive_message(message)
    ingest_us = (time.perf_counter() - t0) / records * 1e6
    return node, {
        "ingest_us_per_record": ingest_us,
        "num_edges": float(node.graph.num_edges),
        "rss_mb": _resident_mb() - before,
    }


def run_rep_phases(node: BarterCastNode, plan: RepScalePlan, span) -> Tuple[Outcome, Dict[str, float]]:
    """The timed query session; returns the outcome and per-phase costs."""
    perf = time.perf_counter
    costs: Dict[str, float] = {}
    with span("experiments.run"):
        t0 = perf()
        scalar = []
        for target in plan.scalar_targets:
            node.invalidate_cache()
            scalar.append(node.reputation_of(target))
        costs["cold_scalar_us"] = (perf() - t0) / len(scalar) * 1e6

        build_csr = getattr(node.graph, "build_csr", None)
        if build_csr is not None:
            t0 = perf()
            build_csr()
            costs["csr_build_ms"] = (perf() - t0) * 1e3

        cold_s = warm_s = 0.0
        cold: List[float] = []
        warm: List[float] = []
        for batch in plan.batches:
            node.invalidate_cache()
            t0 = perf()
            first = node.reputations_of(batch)
            t1 = perf()
            second = node.reputations_of(batch)
            t2 = perf()
            cold_s += t1 - t0
            warm_s += t2 - t1
            cold.extend(first[t] for t in batch)
            warm.extend(second[t] for t in batch)
        costs["cold_batch_us_per_target"] = cold_s / len(cold) * 1e6
        costs["warm_batch_us_per_target"] = warm_s / len(warm) * 1e6

        t0 = perf()
        ranked: List[int] = []
        for message, candidates in zip(plan.fresh, plan.candidates):
            node.receive_message(message)
            ranked.extend(node.rank_by_reputation(candidates))
        costs["mixed_us_per_iter"] = (perf() - t0) / len(plan.fresh) * 1e6

    raw = {
        "scalar": np.array(scalar),
        "cold": np.array(cold),
        "ranked": np.array(ranked, dtype=np.int64),
    }
    scores = np.concatenate([raw["scalar"], raw["cold"]])
    outcome = Outcome(
        _sha(*(raw[k].tobytes() for k in sorted(raw))),
        checks=[
            ("scores finite and in [-1, 1]", bool(np.all(np.abs(scores) <= 1.0))),
            ("warm batch == cold batch", warm == cold),
        ],
        raw=raw,
    )
    return outcome, costs


def _setup_rep_scale(seed: int, profile: str, workdir: str):
    plan = make_rep_plan(seed, profile)
    return (plan, *build_rep_node(plan))


def _run_rep_scale(state, span) -> Outcome:
    plan, node, build_costs = state
    outcome, costs = run_rep_phases(node, plan, span)
    outcome.layer = {f"graph.default.{k}": v for k, v in {**build_costs, **costs}.items()}
    lookups = node.rep_cache_hits + node.rep_cache_misses
    outcome.layer["core.node.rep_cache.hit_ratio"] = node.rep_cache_hits / max(lookups, 1)
    outcome.layer["core.node.rep_cache.invalidations"] = float(node.rep_cache_invalidations)
    return outcome


#: Share of the timed phases the columnar backend replays (its scalar
#: query is ~9x slower than the default's; the check is bit-identity,
#: not speed).
COLUMNAR_SHARE = 0.1


def _cross_check_columnar(state, reference: Outcome) -> None:
    """Replay a prefix of the plan on the columnar backend and add its
    ``graph.columnar.*`` costs and the *backends are bit-identical*
    checks to ``reference`` — nothing once the backend is gone."""
    plan = state[0]
    try:
        node, build_costs = build_rep_node(plan, backend="columnar")
    except (TypeError, ValueError):
        return
    outcome, costs = run_rep_phases(node, plan.prefix(COLUMNAR_SHARE), null_span)
    reference.layer.update(
        {f"graph.columnar.{k}": v for k, v in {**build_costs, **costs}.items()}
    )
    reference.checks += [
        (
            f"columnar {key} bit-identical to default",
            np.array_equal(mine, reference.raw[key][: len(mine)], equal_nan=True),
        )
        for key, mine in outcome.raw.items()
    ]


class Workload(NamedTuple):
    #: ``setup(seed, profile, workdir) -> state``: everything before the clock starts.
    setup: Callable[[int, str, str], object]
    #: ``run(state, span) -> Outcome``: the timed phase.
    run: Callable[[object, Callable], Outcome]
    #: ``cross_check(state, outcome)``: traced run only — replay on a
    #: second implementation and add its costs and checks to ``outcome``.
    cross_check: Optional[Callable[[object, Outcome], None]] = None


#: In the order the suite interleaves them.
WORKLOADS: Dict[str, Workload] = {
    "gossip_fast": Workload(_setup_gossip_fast, _run_gossip_fast),
    "swarm_ban_paper": Workload(_setup_swarm_ban_paper, _run_swarm_ban_paper),
    "faults_fast": Workload(_setup_faults_fast, _run_faults_fast),
    "rep_scale_30k": Workload(_setup_rep_scale, _run_rep_scale, _cross_check_columnar),
    "gossip_fast_obs": Workload(_setup_gossip_fast_obs, _run_gossip_fast_obs),
}
