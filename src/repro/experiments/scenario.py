"""Scenario profiles shared by the figure drivers.

A :class:`ScenarioConfig` bundles everything that defines an experimental
condition except the policy and adversary knobs the individual figures
vary: the trace parameters, the BitTorrent/engine configuration, the
BarterCast configuration, the freerider fraction, and the seed.

Two named profiles:

``paper``
    The paper's setup (§5.1): 100 peers in 10 swarms for one week, file
    sizes from tens of MB to 2 GB, ADSL links, 50 % lazy freeriders,
    sharers seed 10 h, ``Nh = Nr = 10``.  Minutes of wall time per run.

``fast``
    A scaled-down profile with the same qualitative dynamics: 40 peers in
    5 swarms for 3 days, files 0.6–2 GB, 60 s rounds.  Seconds per run;
    used by the test and benchmark suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bittorrent.config import BitTorrentConfig
from repro.bittorrent.roles import RoleAssignment
from repro.bittorrent.simulator import CommunitySimulator
from repro.core.node import BarterCastConfig
from repro.core.policies import ReputationPolicy
from repro.core.reputation import ReputationMetric
from repro.faults import FaultConfig
from repro.obs import Observability
from repro.traces.models import CommunityTrace, DAY, HOUR
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams

__all__ = ["ScenarioConfig", "build_simulation"]

KB = 1024.0
MB = 1024.0 * KB

#: Arctan unit used by the simulation scenarios (bytes).
#:
#: The metric's library default (100 MiB) matches the paper's "0 vs 100 MB"
#: motivation, which presumes the per-pair transfer volumes of a 100-peer /
#: 10-swarm community where each download is spread over 20-30 sources.
#: Our synthetic traces produce heavier per-pair volumes (fewer concurrent
#: sources per swarm), so the scenarios calibrate the unit to 512 MiB to
#: keep the ban thresholds at the same *relative* operating point: sharers'
#: residual imbalances (hundreds of MB against their heaviest seeders) stay
#: above delta = -0.5 while freeriders' GB-scale one-sided consumption
#: falls below it.  The metric-unit ablation bench sweeps this choice.
SCENARIO_UNIT_BYTES = 512 * MB


@dataclass
class ScenarioConfig:
    """One experimental condition (minus policy/adversary knobs).

    Attributes
    ----------
    name:
        Profile tag carried into reports.
    trace_params:
        Synthetic-trace knobs.
    bt_config:
        BitTorrent/engine knobs.
    bc_config:
        BarterCast knobs (``Nh``, ``Nr``, metric).
    freerider_fraction:
        Population split (paper: 0.5).
    seed:
        Root seed for trace generation, role assignment and simulation.
    faults:
        Optional gossip-plane fault injection
        (:class:`~repro.faults.FaultConfig`); ``None`` (default) and
        null configs leave the simulation byte-identical to a faultless
        build.
    provenance:
        When True the simulation records claim lineage (message ids,
        receipt times, supersede counts) for post-run explanation via
        ``repro explain``.  Off by default; recording never feeds back
        into behaviour, so results are bit-identical either way.
    engine:
        Reputation mechanism every node runs (DESIGN.md §15):
        ``"bartercast"`` (default, the paper's maxflow metric),
        ``"gossip"``, or ``"ratio"``.  A
        name, not an instance, so scenarios stay picklable for sweep
        tasks.  Under :class:`~repro.core.policies.NoPolicy` the engine
        is never consulted during the run, so fault sweeps across
        engines replay identical seeded schedules.
    """

    name: str
    trace_params: TraceParams
    bt_config: BitTorrentConfig
    bc_config: BarterCastConfig = field(default_factory=lambda: BarterCastConfig(
        metric=ReputationMetric(unit_bytes=SCENARIO_UNIT_BYTES)
    ))
    freerider_fraction: float = 0.5
    seed: int = 42
    faults: Optional[FaultConfig] = None
    provenance: bool = False
    engine: str = "bartercast"

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, seed: int = 42) -> "ScenarioConfig":
        """The paper's full-scale setup (§5.1)."""
        return cls(
            name="paper",
            trace_params=TraceParams(
                num_peers=100,
                num_swarms=10,
                duration=7 * DAY,
                uplink_bps=512 * KB,
                downlink_bps=3 * MB,
                min_file_size=30 * MB,
                max_file_size=2048 * MB,
                target_pieces=512,
            ),
            bt_config=BitTorrentConfig(
                round_interval=10.0,
                optimistic_interval=30.0,
                gossip_interval=60.0,
                seed_time=10 * HOUR,
                sample_interval=6 * HOUR,
            ),
            seed=seed,
        )

    @classmethod
    def fast(cls, seed: int = 42) -> "ScenarioConfig":
        """Scaled-down profile for tests and benchmarks (seconds per run)."""
        return cls(
            name="fast",
            trace_params=TraceParams(
                num_peers=40,
                num_swarms=5,
                duration=3 * DAY,
                uplink_bps=512 * KB,
                downlink_bps=3 * MB,
                min_file_size=600 * MB,
                max_file_size=2048 * MB,
                target_pieces=128,
                swarms_per_peer_mean=4.0,
            ),
            bt_config=BitTorrentConfig(
                round_interval=60.0,
                optimistic_interval=60.0,
                gossip_interval=120.0,
                seed_time=10 * HOUR,
                sample_interval=4 * HOUR,
            ),
            seed=seed,
        )

    @classmethod
    def tiny(cls, seed: int = 42) -> "ScenarioConfig":
        """Minimal smoke-test profile (sub-second runs, CI-friendly).

        Small enough that quantitative claims are noisy; tests use it for
        plumbing checks and direction-of-effect assertions only.
        """
        return cls(
            name="tiny",
            trace_params=TraceParams(
                num_peers=14,
                num_swarms=2,
                duration=1.0 * DAY,
                min_file_size=20 * MB,
                max_file_size=60 * MB,
                target_pieces=48,
                swarms_per_peer_mean=1.6,
                prime_time_hour=2.0,
                day_active_prob=1.0,
                mean_session_hours=8.0,
            ),
            bt_config=BitTorrentConfig(
                round_interval=60.0,
                optimistic_interval=60.0,
                gossip_interval=120.0,
                seed_time=10 * HOUR,
                sample_interval=2 * HOUR,
            ),
            # The arctan unit tracks the profile's transfer volumes (see
            # SCENARIO_UNIT_BYTES): tiny files are 20-60 MB, so the unit
            # drops accordingly or no reputation would ever leave ~0.
            bc_config=BarterCastConfig(
                metric=ReputationMetric(unit_bytes=24 * MB)
            ),
            seed=seed,
        )

    @classmethod
    def named(cls, profile: str, seed: int = 42) -> "ScenarioConfig":
        """Look up a profile by name (``"paper"``, ``"fast"`` or ``"tiny"``)."""
        if profile == "paper":
            return cls.paper(seed)
        if profile == "fast":
            return cls.fast(seed)
        if profile == "tiny":
            return cls.tiny(seed)
        raise ValueError(f"unknown scenario profile {profile!r}")

    # ------------------------------------------------------------------
    def make_trace(self) -> CommunityTrace:
        """Generate the (deterministic) trace for this scenario."""
        return SyntheticTraceGenerator(self.trace_params, seed=self.seed).generate()

    def make_roles(
        self,
        trace: CommunityTrace,
        disobey_fraction: float = 0.0,
        disobey_kind: Optional[str] = None,
    ) -> RoleAssignment:
        """Assign roles/behaviours for this scenario's population."""
        return RoleAssignment.split(
            trace,
            freerider_fraction=self.freerider_fraction,
            seed=self.seed,
            disobey_fraction=disobey_fraction,
            disobey_kind=disobey_kind,
        )

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """A copy of this scenario with a different seed."""
        return replace(self, seed=seed)

    def with_faults(self, faults: Optional[FaultConfig]) -> "ScenarioConfig":
        """A copy of this scenario with a different fault schedule."""
        return replace(self, faults=faults)

    def with_provenance(self, provenance: bool = True) -> "ScenarioConfig":
        """A copy of this scenario with lineage recording toggled."""
        return replace(self, provenance=provenance)

    def with_engine(self, engine: str) -> "ScenarioConfig":
        """A copy of this scenario with a different reputation engine."""
        return replace(self, engine=engine)


def build_simulation(
    scenario: ScenarioConfig,
    policy: Optional[ReputationPolicy] = None,
    disobey_fraction: float = 0.0,
    disobey_kind: Optional[str] = None,
    obs: Optional[Observability] = None,
) -> CommunitySimulator:
    """Construct a ready-to-run simulator for a scenario.

    The trace and role split depend only on the scenario seed, so two
    calls with different policies run against identical populations —
    paired comparisons, as the paper's policy figures require.  The
    optional ``obs`` bundle is threaded into the simulator (and from
    there the engine, nodes and choker); it never affects results.
    """
    trace = scenario.make_trace()
    roles = scenario.make_roles(trace, disobey_fraction, disobey_kind)
    return CommunitySimulator(
        trace,
        roles,
        policy=policy,
        config=scenario.bt_config,
        bc_config=scenario.bc_config,
        seed=scenario.seed,
        faults=scenario.faults,
        obs=obs,
        provenance=scenario.provenance,
        engine=scenario.engine,
    )
