"""Observability: default-off recorders behind one lifecycle.

Every recorder is a *leg* of the :class:`Observability` bundle threaded
through the simulator stack (:data:`NULL_OBS`, the all-off bundle, is
every constructor's default).  A leg is off unless asked for, its
disabled form is a null object, and nothing it does consumes a
simulation RNG stream, so an instrumented run is bit-identical to an
uninstrumented one (pinned by ``tests/test_obs.py``).

The lifecycle all legs share is described once, in :mod:`repro.obs.legs`.
The bundle iterates its fields, so :mod:`repro.parallel` ships *the
bundle's* snapshot home from a worker and the CLI notes, prints and
exports *the bundle* — neither names a leg, and a leg that is a field
cannot be left out of ``--jobs N``.  The legs:

``metrics``
    Counters and gauges (:class:`~repro.obs.metrics.MetricsRegistry`):
    the components count in their own attributes and a finished run
    publishes them; nothing on a hot path writes here.
``tracer``
    JSONL event emitter with per-category deterministic sampling
    (:class:`~repro.obs.trace.TraceEmitter`); one stream, one process —
    it has no mirror, so a traced sweep runs inline.
``timeseries``
    Per-run convergence series
    (:class:`~repro.obs.timeseries.TimeSeriesCollector`).
``dissemination``
    Per-claim propagation DAGs and fault attribution
    (:class:`~repro.obs.dissemination.DisseminationCollector`).
``profiler``
    Phase / event / reputation-evaluation wall+CPU profile
    (:class:`~repro.obs.profile.Profiler`) — the only clock.

Beside the bundle: :mod:`repro.obs.provenance` records claim lineage in
each node's shared history (switched on by the scenario; read by
:mod:`repro.obs.explain`; its totals are ``prov.*`` metrics), and
:mod:`repro.obs.manifest` writes the run manifest with each leg's
``summary()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.legs import Leg
from repro.obs.manifest import MANIFEST_SCHEMA, ManifestBuilder, describe, read_manifest
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.dissemination import (
    DISSEMINATION_SCHEMA,
    NULL_DISSEMINATION,
    DisseminationCollector,
    DisseminationConfig,
    DisseminationRecorder,
    render_attribution,
)
from repro.obs.provenance import NULL_PROVENANCE, ClaimLineage, ProvenanceRecorder
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.timeseries import (
    NULL_TIMESERIES,
    TIMESERIES_SCHEMA,
    TimeSeriesCollector,
    TimeSeriesConfig,
    TimeSeriesRecorder,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    TraceEmitter,
    parse_sample_spec,
    read_trace,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "make_observability",
    "parse_sample_spec",
    "MetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "TraceEmitter",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "read_trace",
    "ManifestBuilder",
    "MANIFEST_SCHEMA",
    "read_manifest",
    "describe",
    "ClaimLineage",
    "ProvenanceRecorder",
    "NULL_PROVENANCE",
    "Profiler",
    "NULL_PROFILER",
    "TimeSeriesCollector",
    "TimeSeriesConfig",
    "TimeSeriesRecorder",
    "NULL_TIMESERIES",
    "TIMESERIES_SCHEMA",
    "DisseminationCollector",
    "DisseminationConfig",
    "DisseminationRecorder",
    "NULL_DISSEMINATION",
    "DISSEMINATION_SCHEMA",
    "render_attribution",
]


@dataclass(frozen=True)
class Observability:
    """The bundle handed down through the simulator stack.

    Every field is a leg (:mod:`repro.obs.legs`); the methods below are
    the only loops over them, in field order — which is therefore the
    order of the CLI's printed sections and ``[wrote ...]`` lines.
    """

    metrics: MetricsRegistry = NULL_METRICS
    tracer: TraceEmitter = NULL_TRACER
    timeseries: TimeSeriesCollector = NULL_TIMESERIES
    dissemination: DisseminationCollector = NULL_DISSEMINATION
    profiler: Profiler = NULL_PROFILER

    def _live(self) -> List[Tuple[str, Leg]]:
        legs = ((f.name, getattr(self, f.name)) for f in fields(self))
        return [(name, leg) for name, leg in legs if leg.enabled]

    def close(self) -> None:
        """Flush and close the tracer (other legs need no teardown)."""
        self.tracer.close()

    def spec(self) -> Optional[Dict[str, Leg]]:
        """A mirror of every live leg, by field name: picklable, and
        ``Observability(**spec)`` is an empty bundle that records the
        same things — what a worker process is handed.  ``None`` when a
        live leg has no mirror (the tracer)."""
        spec = {name: leg.mirror() for name, leg in self._live()}
        return None if None in spec.values() else spec

    def begin_task(self, label: str) -> None:
        for _, leg in self._live():
            leg.begin_task(label)

    def snapshot(self) -> Dict[str, object]:
        """What the live legs recorded, by field name (picklable)."""
        return {name: leg.snapshot() for name, leg in self._live()}

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a mirror bundle's :meth:`snapshot` in (call in task order)."""
        for name, leg in self._live():
            if name in snapshot:
                leg.merge(snapshot[name])

    def notes(self) -> Iterator[Tuple[str, object]]:
        """``(key, summary)`` for the manifest's ``extra`` section."""
        for _, leg in self._live():
            summary = leg.summary() if leg.note else None
            if summary:
                yield leg.note, summary

    def renders(self) -> Iterator[str]:
        """The sections the CLI prints after a run."""
        for _, leg in self._live():
            text = leg.render()
            if text:
                yield text

    def export(self, directory: Union[str, Path]) -> List[Path]:
        """Write every live leg's artifacts; returns the written paths."""
        return [path for _, leg in self._live() for path in leg.export(directory)]


#: The shared disabled bundle — the default for every constructor.
NULL_OBS = Observability()


def make_observability(
    metrics: bool = False,
    trace_path: Optional[Union[str, Path]] = None,
    trace_sample: Union[float, str, Dict[str, float], None] = 1.0,
    seed: int = 0,
    profile: bool = False,
    timeseries: Union[TimeSeriesConfig, float, None] = None,
    dissemination: Union[DisseminationConfig, bool, None] = None,
) -> Observability:
    """Construct the bundle the CLI flags describe.

    Parameters
    ----------
    metrics:
        Enable the metrics registry (``--metrics``).
    trace_path:
        Enable JSONL tracing to this path (``--trace PATH``).
    trace_sample:
        Either a global keep-rate, a ``{category: rate}`` dict, or a CLI
        spec string accepted by :func:`parse_sample_spec`
        (``--trace-sample``).
    seed:
        Seed of the deterministic trace-sampling streams.
    profile:
        Enable phase/event/evaluation profiling (``--prof``).
    timeseries:
        Enable convergence time-series recording (``--timeseries``):
        a :class:`TimeSeriesConfig`, or a sim-time cadence in seconds
        (values ``<= 0`` mean "use the scenario's sample interval").
    dissemination:
        Enable causal dissemination recording (``--dissemination``):
        a :class:`DisseminationConfig`, or any truthy value for the
        default config.
    """
    registry: MetricsRegistry = MetricsRegistry() if metrics else NULL_METRICS
    tracer: TraceEmitter = NULL_TRACER
    if trace_path is not None:
        tracer = TraceEmitter(trace_path, 1.0 if trace_sample is None else trace_sample, seed)
    if timeseries is None:
        collector: TimeSeriesCollector = NULL_TIMESERIES
    elif isinstance(timeseries, TimeSeriesConfig):
        collector = TimeSeriesCollector(timeseries)
    else:
        interval = float(timeseries)
        collector = TimeSeriesCollector(
            TimeSeriesConfig(interval_s=interval if interval > 0 else None)
        )
    diss: DisseminationCollector = NULL_DISSEMINATION
    if dissemination:
        config = dissemination if isinstance(dissemination, DisseminationConfig) else None
        diss = DisseminationCollector(config)
    return Observability(
        metrics=registry,
        tracer=tracer,
        timeseries=collector,
        profiler=Profiler() if profile else NULL_PROFILER,
        dissemination=diss,
    )
