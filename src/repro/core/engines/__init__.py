"""The mechanism zoo: pluggable reputation engines (DESIGN.md §15).

Engines are referenced by name everywhere outside this package —
``ScenarioConfig.engine``, ``repro faults --engine``, pickled sweep
tasks — and instantiated per node via :func:`make_engine`.  Every node
holds one, ``"bartercast"`` (the default, the paper's Equation 1)
included, and serves its scores through the node's one dirty-set cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.engines.base import ReputationEngine
from repro.core.engines.bartercast import BarterCastEngine
from repro.core.engines.gossip import DifferentialGossipEngine
from repro.core.engines.ratio import RatioCreditEngine

__all__ = [
    "ReputationEngine",
    "BarterCastEngine",
    "DifferentialGossipEngine",
    "RatioCreditEngine",
    "ENGINES",
    "ENGINE_NAMES",
    "make_engine",
]

#: name -> zero-argument factory (engines with knobs expose them here as
#: constructor defaults; sweeps vary mechanisms, not per-engine tuning).
ENGINES: Dict[str, Callable[[], ReputationEngine]] = {
    "bartercast": BarterCastEngine,
    "gossip": DifferentialGossipEngine,
    "ratio": RatioCreditEngine,
}

#: Registry order, for CLI help and report sections.
ENGINE_NAMES: Tuple[str, ...] = tuple(ENGINES)


def make_engine(name: str) -> ReputationEngine:
    """Instantiate the engine registered under ``name``."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known engines: {', '.join(ENGINES)}"
        ) from None
    return factory()
