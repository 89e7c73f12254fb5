"""Figure 3: disobeying the message protocol.

Regenerates the two disobedience sweeps under the ban policy (δ = −0.5)
and checks the paper's claims:

* (a) ignoring the message protocol does not significantly change the
  system's effectiveness — the sharers' information base survives;
* (b) lying degrades effectiveness as the liar fraction grows, but the
  freeriders do not end up *faster* than sharers for moderate fractions.
"""

import numpy as np
import pytest

from repro.experiments import assemble_fig3, fig3_tasks
from repro.experiments.report import report_fig3
from repro.parallel import run_sweep

PCTS = (0, 20, 40)


@pytest.fixture(scope="module")
def fig3a(scenario):
    return assemble_fig3(run_sweep(fig3_tasks(scenario, "ignore", PCTS)), "ignore", PCTS)


@pytest.fixture(scope="module")
def fig3b(scenario):
    return assemble_fig3(run_sweep(fig3_tasks(scenario, "lie", PCTS)), "lie", PCTS)


def test_fig3a_ignore(benchmark, scenario, fig3a, capsys):
    result = benchmark.pedantic(
        lambda: assemble_fig3(run_sweep(fig3_tasks(scenario, "ignore", (0, 40))), "ignore", (0, 40)),
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print()
        print(report_fig3(fig3a))
    assert result.kind == "ignore"


def test_fig3a_ignorers_do_not_break_effectiveness(fig3a):
    """Paper: 'this behaviour does not significantly change the
    effectiveness of our reputation system'."""
    rel = fig3a.relative_freerider_speed()
    # Freerider relative speed at the largest ignore fraction stays within
    # 35 percentage points of the no-ignorer case.
    assert abs(rel[-1] - rel[0]) < 0.35


def test_fig3b_lie(fig3b, capsys):
    with capsys.disabled():
        print()
        print(report_fig3(fig3b))
    assert fig3b.kind == "lie"
    assert np.isfinite(fig3b.freerider_speed_kbps).all()


def test_fig3b_lying_does_not_collapse_sharers(fig3b):
    """Sharers keep a healthy absolute speed even with many liars."""
    assert (fig3b.sharer_speed_kbps > 50.0).all()
