"""Figure 2: effectiveness of the rank and ban policies.

Regenerates the three panels on one paired population and checks the
paper's orderings:

* the ban policy suppresses freerider download speed relative to the
  no-policy baseline;
* ban suppresses freeriders more than rank does (panel a vs b);
* the δ sweep (panel c) is ordered: a stricter threshold (closer to 0)
  suppresses freeriders at least as much as a laxer one.
"""

import numpy as np
import pytest

from repro.core.policies import NoPolicy
from repro.experiments import assemble_fig2, build_simulation, fig2_tasks
from repro.experiments.report import report_fig2
from repro.parallel import run_sweep

KB = 1024.0


def final_defined(series):
    vals = series[~np.isnan(series)]
    return vals[-1] if vals.size else float("nan")


@pytest.fixture(scope="module")
def fig2_result(scenario):
    return assemble_fig2(run_sweep(fig2_tasks(scenario)))


@pytest.fixture(scope="module")
def baseline_speeds(scenario):
    """No-policy reference speeds on the same population."""
    sim = build_simulation(scenario, policy=NoPolicy())
    stats = sim.run()
    return {
        "sharers": stats.group_mean_speed(sim.roles.sharers) / KB,
        "freeriders": stats.group_mean_speed(sim.roles.freeriders) / KB,
    }


def test_fig2a_rank(benchmark, scenario, fig2_result, capsys):
    result = benchmark.pedantic(
        lambda: assemble_fig2(run_sweep(fig2_tasks(scenario, (-0.5,))), (-0.5,)),
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print()
        print(report_fig2(fig2_result))
    # Rank policy produces speed series for both groups.
    assert np.isfinite(final_defined(result.rank["sharers"]))
    assert np.isfinite(final_defined(result.rank["freeriders"]))


def test_fig2b_ban(fig2_result, baseline_speeds):
    """Ban policy suppresses freeriders vs the no-policy baseline.

    Compare like for like: the final value of the cumulative speed series
    is exactly the whole-run aggregate the baseline reports.
    """
    ban_fr = final_defined(fig2_result.ban["freeriders"])
    assert ban_fr < baseline_speeds["freeriders"]


def test_fig2b_ban_stronger_than_rank(fig2_result):
    """Paper: 'the ban policy is therefore clearly superior'."""
    ban_fr = final_defined(fig2_result.ban["freeriders"])
    rank_fr = final_defined(fig2_result.rank["freeriders"])
    assert ban_fr <= rank_fr + 1e-9


def test_fig2c_delta_sweep(fig2_result):
    """Panel (c): freerider speed ordered by threshold strictness."""
    sweep = {d: np.nanmean(s) for d, s in fig2_result.delta_sweep.items()}
    # delta closer to 0 = stricter = slower freeriders.
    assert sweep[-0.3] <= sweep[-0.5] + 25.0  # small tolerance (KBps)
    assert sweep[-0.5] <= sweep[-0.7] + 25.0
