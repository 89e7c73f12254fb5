"""Structured event tracing: JSONL span/event records with sampling.

A :class:`TraceEmitter` appends one JSON object per line to a file.  The
first line is a header record identifying the schema, the sampling
configuration, and the wall-clock origin; every following line is an
event record:

.. code-block:: json

    {"seq": 17, "cat": "bt.transfer", "name": "piece-transfer",
     "wall": 1.0532, "sim": 86400.0, "dur": null,
     "attrs": {"up": 3, "down": 9, "bytes": 262144.0}}

Fields
------
``seq``
    Emission order (monotonic over the whole file, *after* sampling).
``cat`` / ``name``
    Hierarchical category (sampling unit) and the event name within it.
``wall``
    Wall-clock seconds since the emitter was created (monotonic clock).
``sim``
    Simulated time in seconds, or ``null`` for events outside a
    simulation clock (e.g. kernel invocations during post-hoc analysis).
``dur``
    Wall-clock duration in seconds for span records, ``null`` for point
    events.
``attrs``
    Free-form JSON-safe attributes; omitted when empty.

Sampling
--------
Each category carries an independent keep-probability (``sample_rates``
falls back to ``default_rate``).  Sampling decisions are made by a
per-category :class:`random.Random` seeded from ``(seed, category)``, so
which events survive is a deterministic function of the seed and the
emission sequence — two runs of the same simulation produce traces with
identical ``(cat, name, sim, attrs)`` streams.  Span sampling is decided
at span *entry* so the duration cost is only paid for kept spans.

The disabled default is :data:`NULL_TRACER`; hot paths cache
``tracer.category(...) if tracer.enabled else None`` and skip all trace
work on the ``None`` branch.
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import nullcontext
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.obs.legs import Leg

__all__ = [
    "TRACE_SCHEMA",
    "TraceEmitter",
    "TraceCategory",
    "NullTraceEmitter",
    "NULL_TRACER",
    "read_trace",
]

#: Schema tag written into the header record.
TRACE_SCHEMA = "bartercast-trace/v1"

_NULL_CONTEXT = nullcontext()


class TraceCategory:
    """One category's sampling gate and emission handle."""

    __slots__ = ("emitter", "name", "rate", "_rng")

    def __init__(self, emitter: "TraceEmitter", name: str, rate: float, seed: int) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate for {name!r} must be in [0, 1], got {rate}")
        self.emitter = emitter
        self.name = name
        self.rate = rate
        self._rng = Random((seed << 32) ^ zlib.crc32(name.encode("utf-8")))

    def should_sample(self) -> bool:
        """Advance the deterministic sampling stream by one decision."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        return self._rng.random() < self.rate

    def emit(
        self,
        name: str,
        sim_time: Optional[float] = None,
        attrs: Optional[dict] = None,
        duration_s: Optional[float] = None,
    ) -> bool:
        """Emit one (possibly sampled-out) event; returns whether it was kept."""
        if not self.should_sample():
            self.emitter.records_sampled_out += 1
            return False
        self.emitter._write(self.name, name, sim_time, attrs, duration_s)
        return True

    def sample(self) -> bool:
        """Consume one sampling decision; pair with :meth:`emit_sampled`.

        Hot paths use the split form so the event's attr dict is only
        constructed for kept events::

            if cat is not None and cat.sample():
                cat.emit_sampled("piece_transfer", now, attrs={...})

        The decision stream is the same one :meth:`emit` consumes (one
        draw per decision), so splitting changes neither which events
        survive nor the trace bytes — only who pays for the attrs.
        Rejections are counted as sampled-out here, exactly as
        :meth:`emit` would.
        """
        if self.should_sample():
            return True
        self.emitter.records_sampled_out += 1
        return False

    def emit_sampled(
        self,
        name: str,
        sim_time: Optional[float] = None,
        attrs: Optional[dict] = None,
        duration_s: Optional[float] = None,
    ) -> None:
        """Write one event unconditionally; caller already passed :meth:`sample`."""
        self.emitter._write(self.name, name, sim_time, attrs, duration_s)

    def span(self, name: str, sim_time: Optional[float] = None, attrs: Optional[dict] = None):
        """Context manager emitting one span record with wall duration."""
        if not self.should_sample():
            self.emitter.records_sampled_out += 1
            return _NULL_CONTEXT
        return _Span(self, name, sim_time, attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceCategory {self.name} rate={self.rate}>"


class _Span:
    """A sampled-in span: measures wall duration, emits on exit."""

    __slots__ = ("_category", "_name", "_sim_time", "_attrs", "_t0")

    def __init__(self, category: TraceCategory, name: str, sim_time, attrs) -> None:
        self._category = category
        self._name = name
        self._sim_time = sim_time
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._t0
        self._category.emitter._write(
            self._category.name, self._name, self._sim_time, self._attrs, duration
        )


class TraceEmitter(Leg):
    """Writes sampled JSONL trace records to a file or file-like object.

    Parameters
    ----------
    target:
        Output path (parent directories are created) or an open text
        file-like object (not closed by :meth:`close`).
    sample_rates:
        Per-category keep probabilities; categories not listed use
        ``default_rate``.
    default_rate:
        Keep probability for unlisted categories (default 1.0).
    seed:
        Root seed of the deterministic sampling streams.
    """

    enabled = True

    def __init__(
        self,
        target: Union[str, Path, TextIO],
        sample_rates: Optional[Dict[str, float]] = None,
        default_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError(f"default_rate must be in [0, 1], got {default_rate}")
        self.sample_rates = dict(sample_rates or {})
        self.default_rate = float(default_rate)
        self.seed = int(seed)
        self.records_written = 0
        self.records_sampled_out = 0
        self._categories: Dict[str, TraceCategory] = {}
        self._t0 = time.perf_counter()
        if hasattr(target, "write"):
            self.path: Optional[Path] = None
            self._fh: TextIO = target
            self._owns_fh = False
        else:
            self.path = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
            self._owns_fh = True
        self._closed = False
        # One encoder for the emitter's lifetime: ``json.dumps`` with a
        # ``default`` builds a fresh ``JSONEncoder`` per call.
        self._encode = json.JSONEncoder(default=_json_default).encode
        header = {
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            "seed": self.seed,
            "default_rate": self.default_rate,
            "sample_rates": dict(self.sample_rates),
        }
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def category(self, name: str) -> TraceCategory:
        """The (memoized) sampling handle for ``name``."""
        cat = self._categories.get(name)
        if cat is None:
            rate = self.sample_rates.get(name, self.default_rate)
            cat = TraceCategory(self, name, rate, self.seed)
            self._categories[name] = cat
        return cat

    def emit(
        self,
        category: str,
        name: str,
        sim_time: Optional[float] = None,
        attrs: Optional[dict] = None,
        duration_s: Optional[float] = None,
    ) -> bool:
        """Convenience: route one event through ``category``'s sampler."""
        return self.category(category).emit(name, sim_time, attrs, duration_s)

    def span(self, category: str, name: str, sim_time: Optional[float] = None,
             attrs: Optional[dict] = None):
        """Convenience: a sampled span in ``category``."""
        return self.category(category).span(name, sim_time, attrs)

    # ------------------------------------------------------------------
    def _write(self, cat, name, sim_time, attrs, duration_s) -> None:
        if self._closed:
            return
        self.records_written += 1
        record = {
            "seq": self.records_written,
            "cat": cat,
            "name": name,
            "wall": round(time.perf_counter() - self._t0, 6),
            "sim": sim_time,
            "dur": round(duration_s, 6) if duration_s is not None else None,
        }
        if attrs:
            record["attrs"] = attrs
        self._fh.write(self._encode(record) + "\n")

    def mirror(self) -> None:
        """One JSONL stream, one emitter: a live tracer has no worker-side
        twin, which is what keeps a traced sweep in-process."""
        return None

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close (path-owned handles only); further emits no-op."""
        if self._closed:
            return
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "TraceEmitter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "<stream>"
        return f"<TraceEmitter {where} written={self.records_written}>"


class NullTraceEmitter(TraceEmitter):
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:  # pylint: disable=super-init-not-called
        self.sample_rates = {}
        self.default_rate = 0.0
        self.seed = 0
        self.records_written = 0
        self.records_sampled_out = 0
        self.path = None
        self._closed = True
        self._category = _NullCategory(self)

    def category(self, name: str) -> TraceCategory:
        return self._category

    def emit(self, category, name, sim_time=None, attrs=None, duration_s=None) -> bool:
        return False

    def span(self, category, name, sim_time=None, attrs=None):
        return _NULL_CONTEXT

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTraceEmitter>"


class _NullCategory(TraceCategory):
    __slots__ = ()

    def __init__(self, emitter: NullTraceEmitter) -> None:
        super().__init__(emitter, "null", 0.0, 0)

    def should_sample(self) -> bool:
        return False

    def sample(self) -> bool:
        return False

    def emit(self, name, sim_time=None, attrs=None, duration_s=None) -> bool:
        return False

    def emit_sampled(self, name, sim_time=None, attrs=None, duration_s=None) -> None:
        pass

    def span(self, name, sim_time=None, attrs=None):
        return _NULL_CONTEXT


#: Shared disabled tracer — the default everywhere.
NULL_TRACER = NullTraceEmitter()


def _json_default(obj):
    """Last-resort JSON conversion for attribute values."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return repr(obj)


def read_trace(path: Union[str, Path]) -> Tuple[dict, List[dict]]:
    """Parse a trace file back into ``(header, events)``.

    Raises ``ValueError`` if the header is missing or the schema tag is
    not :data:`TRACE_SCHEMA`.
    """
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path} is empty, not a trace file")
        header = json.loads(first)
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"{path} has schema {header.get('schema')!r}, expected {TRACE_SCHEMA!r}"
            )
        events = [json.loads(line) for line in fh if line.strip()]
    return header, events
