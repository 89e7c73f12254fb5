#!/usr/bin/env python
"""Trace tooling: generate and inspect community traces.

The trace substrate replaces the paper's proprietary filelist.org scrape;
this example shows the workload structure it produces (sessions, flash
crowds, file sizes, connectability).  A trace is a pure function of its
parameters and seed, so re-running with the same ``--seed`` regenerates
it exactly.

Run:  python examples/trace_tooling.py [--seed N]
"""

import argparse

import numpy as np

from repro.analysis.ascii_plot import render_table
from repro.traces import SyntheticTraceGenerator, TraceParams

DAY = 86400.0
MB = 1024.0**2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    params = TraceParams(num_peers=60, num_swarms=6, duration=4 * DAY)
    trace = SyntheticTraceGenerator(params, seed=args.seed).generate()

    print(f"{trace!r}\n")

    # Per-swarm workload: size and flash-crowd arrival pattern.
    rows = []
    for sid, spec in sorted(trace.swarms.items()):
        times = sorted(r.time for r in trace.requests if r.swarm_id == sid)
        first = times[0] / 3600 if times else float("nan")
        spread = (times[-1] - times[0]) / 3600 if len(times) > 1 else 0.0
        rows.append(
            (sid, spec.file_size / MB, spec.num_pieces, len(times), first, spread)
        )
    print(render_table(
        ["swarm", "size MB", "pieces", "requests", "first req (h)", "spread (h)"],
        rows, "{:.1f}",
    ))

    # Session structure: how online is this community?
    uptimes = [p.total_uptime / trace.duration for p in trace.peers.values()]
    connectable = np.mean([p.connectable for p in trace.peers.values()])
    print(f"\nmean online fraction: {np.mean(uptimes):.2f}   "
          f"connectable peers: {connectable:.0%}")

    # Concurrency preview: online peers per 6-hour slot.
    slots = np.arange(0.0, trace.duration, 6 * 3600.0)
    online = [sum(p.online_at(t) for p in trace.peers.values()) for t in slots]
    print("online peers per 6h slot:", online)


if __name__ == "__main__":
    main()
