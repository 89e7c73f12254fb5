"""Community traces: the workload substrate.

The paper drives its simulations with scraped traces of the filelist.org
private BitTorrent tracker (peer uptimes, downtimes, connectability, and
file requests).  Those traces are proprietary, so this subpackage provides
a parametric synthetic generator
(:class:`~repro.traces.synthetic.SyntheticTraceGenerator`) that reproduces
the trace *structure* the simulator consumes — see DESIGN.md §4 for the
substitution argument — plus the dataclasses shared by every experiment.
"""

from repro.traces.models import (
    CommunityTrace,
    FileRequest,
    PeerProfile,
    PeerSession,
    SwarmSpec,
)
from repro.traces.synthetic import SyntheticTraceGenerator, TraceParams

__all__ = [
    "CommunityTrace",
    "FileRequest",
    "PeerProfile",
    "PeerSession",
    "SwarmSpec",
    "SyntheticTraceGenerator",
    "TraceParams",
]
