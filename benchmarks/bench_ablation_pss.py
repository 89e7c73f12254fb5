"""Ablation: the peer-sampling service.

The paper treats the PSS as transparent to BarterCast ("the actual
implementation of such a service is transparent to BarterCast").  This
ablation verifies that claim empirically: running the same community with
the epidemic BuddyCast sampler vs an ideal global-knowledge oracle must
yield the same qualitative reputation outcome (sharers above freeriders),
with BuddyCast paying only a modest information deficit.
"""

import numpy as np
import pytest

from repro.bittorrent.simulator import CommunitySimulator
from repro.core.policies import NoPolicy
from repro.experiments import ScenarioConfig
from repro.sim.rng import RngRegistry

from model import OraclePSS


def run_with_pss(kind: str, seed: int = 31):
    scenario = ScenarioConfig.tiny(seed=seed)
    trace = scenario.make_trace()
    roles = scenario.make_roles(trace)
    sim = CommunitySimulator(
        trace,
        roles,
        policy=NoPolicy(),
        config=scenario.bt_config,
        bc_config=scenario.bc_config,
        seed=seed,
    )
    if kind == "oracle":
        # The simulator's own stream names and registration order.
        rngs = RngRegistry(seed)
        sim.pss = OraclePSS(is_online=sim.live.__contains__, rng=rngs.stream("pss"))
        for pid in rngs.stream("pss-bootstrap").shuffled(sorted(trace.peers)):
            sim.pss.register(pid)
    sim.run()
    snap = sim.system_reputation_snapshot()
    sharer = float(np.mean([snap[p] for p in roles.sharers]))
    freerider = float(np.mean([snap[p] for p in roles.freeriders]))
    knowledge = float(np.mean([sim.nodes[p].graph.num_nodes for p in roles.subjects]))
    return {
        "separation": sharer - freerider,
        "knowledge": knowledge,
        "messages": sum(n.messages_received for n in sim.nodes.values()),
    }


@pytest.fixture(scope="module")
def outcomes():
    return {kind: run_with_pss(kind) for kind in ("buddycast", "oracle")}


def test_pss_transparency(outcomes, capsys):
    with capsys.disabled():
        print()
        for kind, o in outcomes.items():
            print(
                f"{kind:10s} separation={o['separation']:+.4f} "
                f"avg known peers={o['knowledge']:.1f} messages={o['messages']}"
            )
    # Both samplers produce the qualitative result...
    for o in outcomes.values():
        assert o["separation"] > 0.0
    # ...and the epidemic sampler is within 2x of the oracle's information
    # spread (partial views cost something, but not the outcome).
    assert outcomes["buddycast"]["knowledge"] > 0.4 * outcomes["oracle"]["knowledge"]
