"""Outside-in span probes for the traced run.

The traced run wraps the *public* functions of every layer from here —
nothing under ``src/`` is edited.  A :class:`SpanLog` keeps one row per
call (name, start, end, parent) in flat columns; a layer's *self time* is
its span's duration minus the part its child spans cover, so the self
times of all spans add up to the root span's duration exactly and
nothing is counted twice.

Probes are installed and removed by :func:`installed`.  A probe whose
target no longer exists is skipped and noted — its metrics read ``None``
— so a later refactor that renames or deletes a function never breaks
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["SpanLog", "PROBES", "EVENT_GROUPS", "installed", "null_span"]


class SpanLog:
    """In-memory span store: parallel columns, one row per call.

    All spans of a run share ``run_id``.  ``counters`` holds the counts
    taken at the same boundaries (records offered/applied, links chosen,
    bytes moved) so ratios are measured where the work happens.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[int] = [-1]
        self.counters: Dict[str, float] = defaultdict(float)
        #: Objects captured at probe boundaries (e.g. the simulator a
        #: figure driver built internally), for read-only inspection.
        self.captured: Dict[str, object] = {}
        #: Probe targets that no longer exist.
        self.notes: List[str] = []

    def reset(self) -> None:
        """Forget every span and count recorded so far (no span may be
        open); the name table and captured objects stay."""
        assert self.stack == [-1], "reset with a span open"
        for column in (self.name, self.start, self.end, self.parent):
            del column[:]
        self.counters.clear()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``hook(log, args, result)`` runs after the call, inside the
        span, to take counts at the boundary.
        """
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )
        perf = time.perf_counter

        # The columns are appended inline rather than through _open /
        # _close: this wrapper runs millions of times per traced run and
        # its cost is the tracing overhead the ledger reports.
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                ends[idx] = perf()
                stack.pop()

        return probe

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over the whole log."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        calls = np.bincount(name, minlength=len(self.names))
        busy = np.bincount(name, weights=self_s, minlength=len(self.names))
        return {
            self.names[i]: (int(calls[i]), float(busy[i]))
            for i in range(len(self.names))
            if calls[i]
        }

    def dump(self, path: str) -> None:
        """Write every span as JSON (columnar: a row is one index)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "counters": dict(self.counters),
                    "notes": self.notes,
                },
                fh,
            )


@contextmanager
def null_span(name: str) -> Iterator[None]:
    """The untraced stand-in for :meth:`SpanLog.span`."""
    yield


# ----------------------------------------------------------------------
# Boundary counts
# ----------------------------------------------------------------------
def _count_message(log: SpanLog, args, result) -> None:
    if result is not None:
        log.counters["core.messages"] += 1
        log.counters["core.message_records"] += result.num_records


def _count_ingest(log: SpanLog, args, result) -> None:
    log.counters["core.records_offered"] += args[1].num_records
    log.counters["core.records_applied"] += result


def _count_sample(log: SpanLog, args, result) -> None:
    if result is None:
        log.counters["pss.sample_misses"] += 1


def _count_links(log: SpanLog, args, result) -> None:
    log.counters["bittorrent.links"] += len(result)


def _count_transfer(log: SpanLog, args, result) -> None:
    log.counters["bittorrent.bytes_moved"] += args[3]


def _capture_sim(log: SpanLog, args, result) -> None:
    log.captured["sim"] = args[0]


class Probe(NamedTuple):
    """One patched attribute: ``module.attr`` runs inside span ``span``."""

    span: str
    module: str
    attr: str  # dotted path below the module, e.g. "BarterCastNode.create_message"
    hook: Optional[Callable] = None


#: Every layer's public entry points.  ``select_unchokes``,
#: ``pick_rarest``, ``build_simulation`` and ``audit_simulation`` are
#: imported by name into their callers, so the caller's binding is the
#: one that must be patched.
PROBES: Tuple[Probe, ...] = (
    Probe("sim.engine.run_until", "repro.sim.engine", "Simulator.run_until"),
    Probe("traces.synthetic.generate", "repro.traces.synthetic", "SyntheticTraceGenerator.generate"),
    Probe("experiments.build", "repro.experiments.scenario", "build_simulation"),
    Probe("experiments.build", "repro.experiments.fig1", "build_simulation"),
    Probe("experiments.build", "repro.experiments.faults", "build_simulation"),
    Probe("bittorrent.simulator.run", "repro.bittorrent.simulator", "CommunitySimulator.run", _capture_sim),
    Probe("core.node.create_message", "repro.core.node", "BarterCastNode.create_message", _count_message),
    Probe("core.node.receive_message", "repro.core.node", "BarterCastNode.receive_message"),
    Probe("core.node.record", "repro.core.node", "BarterCastNode.record_upload"),
    Probe("core.node.record", "repro.core.node", "BarterCastNode.record_download"),
    Probe("core.node.record", "repro.core.node", "BarterCastNode.note_seen"),
    Probe("core.node.reputation", "repro.core.node", "BarterCastNode.reputation_of"),
    Probe("core.node.reputation", "repro.core.node", "BarterCastNode.reputations_of"),
    Probe("core.node.reputation", "repro.core.node", "BarterCastNode.rank_by_reputation"),
    Probe("core.history.select", "repro.core.history", "PrivateHistory.top_uploaders"),
    Probe("core.history.select", "repro.core.history", "PrivateHistory.most_recent"),
    Probe("core.sharedhistory.ingest", "repro.core.sharedhistory", "SubjectiveSharedHistory.ingest", _count_ingest),
    Probe("core.sharedhistory.forget_reporter", "repro.core.sharedhistory", "SubjectiveSharedHistory.forget_reporter"),
    Probe("pss.buddycast.tick", "repro.pss.buddycast", "BuddyCastPSS.tick"),
    Probe("pss.buddycast.sample", "repro.pss.buddycast", "BuddyCastPSS.sample", _count_sample),
    Probe("bittorrent.choker.select_unchokes", "repro.bittorrent.simulator", "select_unchokes", _count_links),
    Probe("bittorrent.piece.pick_rarest", "repro.bittorrent.simulator", "pick_rarest"),
    Probe("bittorrent.stats.record_transfer", "repro.bittorrent.stats", "StatsCollector.record_transfer", _count_transfer),
    Probe("faults.channel.plan_delivery", "repro.faults.channel", "ChannelModel.plan_delivery"),
    Probe("faults.audit", "repro.experiments.faults", "audit_simulation"),
)

#: Engine event label -> span group (``sim.event.<group>``).
EVENT_GROUPS: Dict[str, str] = {
    "bt-round": "bt-round",
    "gossip": "gossip",
    "sample": "sample",
    "net-deliver": "net-deliver",
    "churn-down": "churn",
    "churn-rejoin": "churn",
    "online": "session",
    "offline": "session",
    "origin-join": "session",
    "request": "session",
}


def _event_probe(log: SpanLog, schedule_at: Callable) -> Callable:
    """``Simulator.schedule_at`` with every callback wrapped in a span
    named after its event label."""
    by_label = {label: log.name_id(f"sim.event.{group}") for label, group in EVENT_GROUPS.items()}
    other = log.name_id("sim.event.other")
    names, parents, starts, ends, stack = log.name, log.parent, log.start, log.end, log.stack
    perf = time.perf_counter

    @functools.wraps(schedule_at)
    def probe(self, time, callback, label=""):
        nid = by_label.get(label, other)

        def fire():
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                callback()
            finally:
                ends[idx] = perf()
                stack.pop()

        return schedule_at(self, time, fire, label)

    return probe


def _sampler_probe(log: SpanLog, add_sampler: Callable) -> Callable:
    """``CommunitySimulator.add_sampler`` with the registered callback
    wrapped in an ``experiments.sampler`` span."""

    @functools.wraps(add_sampler)
    def probe(self, fn):
        return add_sampler(self, log.wrap("experiments.sampler", fn))

    return probe


def _resolve(module: str, attr: str):
    """``(owner, leaf name)`` of ``module.attr``, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


@contextmanager
def installed(log: SpanLog) -> Iterator[SpanLog]:
    """Patch every probe target for the duration of the block.

    On exit every patched attribute is put back exactly as it was found
    (an attribute that was only inherited is deleted again).
    """
    undo: List[Tuple[object, str, bool, object]] = []

    def patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        found = _resolve(module, attr)
        if found is None:
            log.notes.append(f"probe target {module}.{attr} not found; its metrics are null")
            return
        owner, leaf = found
        own = leaf in vars(owner)
        undo.append((owner, leaf, own, vars(owner).get(leaf)))
        setattr(owner, leaf, make(getattr(owner, leaf)))

    try:
        for p in PROBES:
            patch(p.module, p.attr, lambda fn, p=p: log.wrap(p.span, fn, p.hook))
        patch("repro.sim.engine", "Simulator.schedule_at", lambda fn: _event_probe(log, fn))
        patch(
            "repro.bittorrent.simulator",
            "CommunitySimulator.add_sampler",
            lambda fn: _sampler_probe(log, fn),
        )
        yield log
    finally:
        for owner, leaf, own, original in reversed(undo):
            if own:
                setattr(owner, leaf, original)
            else:
                delattr(owner, leaf)
