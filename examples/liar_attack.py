#!/usr/bin/env python
"""Liar attack: how far can selfish lying carry a freerider?

Builds a small gossip network in which one peer lies outrageously about
its contribution (claims multi-GB uploads, zero downloads) and shows why
the maxflow bound keeps the damage local: the liar's reputation at any
evaluator is capped by the evaluator's *real* incoming service.

Then runs the Figure 3(b) sweep in miniature: the community-wide effect
of increasing liar fractions under the ban policy.

Run:  python examples/liar_attack.py
"""

from repro.analysis.ascii_plot import render_table
from repro.core import BarterCastNode, SelfishLiar, MB
from repro.experiments import ScenarioConfig, assemble_fig3, fig3_tasks
from repro.parallel import run_sweep


def microcosm() -> None:
    print("== Microcosm: one liar, one honest relay, one evaluator ==\n")
    liar = BarterCastNode("liar", behavior=SelfishLiar(lie_upload_bytes=100_000 * MB))
    relay = BarterCastNode("relay")
    evaluator = BarterCastNode("eva")

    # Reality: the liar downloaded 300 MB from the relay and gave nothing.
    liar.record_download("relay", 300 * MB, now=1.0)
    relay.record_upload("liar", 300 * MB, now=1.0)

    # The evaluator's real experience: it received 80 MB from the relay.
    evaluator.record_download("relay", 80 * MB, now=2.0)

    # Honest gossip reaches the evaluator first...
    evaluator.receive_message(relay.create_message(now=3.0))
    honest_view = evaluator.reputation_of("liar")

    # ...then the liar's fabricated message (claims ~100 GB uploaded).
    evaluator.receive_message(liar.create_message(now=4.0))
    after_lie = evaluator.reputation_of("liar")

    cap = evaluator.config.metric.scale(80 * MB)
    print(f"reputation of liar before its lie : {honest_view:+.3f}")
    print(f"reputation of liar after its lie  : {after_lie:+.3f}")
    print(f"hard cap from 80 MB real service  : {cap:+.3f}")
    print(
        "\nThe lie moved the needle only within the maxflow bound: the\n"
        "evaluator weighs hearsay by what it actually received.\n"
    )


def community_sweep() -> None:
    print("== Community: Figure 3(b) in miniature (ban policy, delta=-0.5) ==\n")
    scenario = ScenarioConfig.tiny(seed=11)
    pcts = (0, 25, 50)
    result = assemble_fig3(run_sweep(fig3_tasks(scenario, "lie", pcts)), "lie", pcts)
    rows = [
        (f"{pct:.0f}%", s, f)
        for pct, s, f in zip(
            result.percentages, result.sharer_speed_kbps, result.freerider_speed_kbps
        )
    ]
    print(render_table(["% lying", "sharer KBps", "freerider KBps"], rows, "{:.1f}"))
    print(
        "\nThe paper finds the protocol remains effective below ~18% liars\n"
        "at full scale; run `python -m repro.cli fig3 --profile paper` for\n"
        "the full-week version."
    )


if __name__ == "__main__":
    microcosm()
    community_sweep()
