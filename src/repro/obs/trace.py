"""Structured event tracing: sampled JSONL event records.

A :class:`TraceEmitter` writes one JSON object per line to a file.  The
first line is a header record identifying the schema, the sampling
configuration, and the wall-clock origin; every following line is an
event record:

.. code-block:: json

    {"seq": 17, "cat": "bt.transfer", "name": "piece-transfer",
     "wall": 1.0532, "sim": 86400.0, "dur": null,
     "attrs": {"up": 3, "down": 9, "bytes": 262144.0}}

``seq`` is the emission order (after sampling); ``cat`` the category (the
sampling unit) and ``name`` the event within it; ``wall`` seconds since
the emitter was created (monotonic clock); ``sim`` the simulated time, or
``null``; ``dur`` the wall duration of a timed event (``bt.round`` writes
its round's), or ``null``; ``attrs`` free-form JSON-safe attributes,
omitted when empty.

Sampling
--------
Each category carries an independent keep-probability (``sample_rates``
falls back to ``default_rate``).  Sampling decisions are made by a
per-category :class:`random.Random` seeded from ``(seed, category)``: one
draw per decision, none at rate 0 or 1.  Which events survive is
therefore a deterministic function of the seed and the emission
sequence — two runs of the same simulation produce traces with identical
``(cat, name, sim, attrs)`` streams.

Every emit site has one form, so an event's attrs are built only when it
is kept::

    if cat is not None and cat.sample():
        cat.emit_sampled("piece_transfer", now, attrs={...})

where ``cat`` is cached as ``tracer.category(...) if tracer.enabled else
None``: with the disabled default, :data:`NULL_TRACER`, a site does no
trace work beyond the ``None`` check.
"""

from __future__ import annotations

import json
import time
import zlib
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.legs import Leg

__all__ = [
    "TRACE_SCHEMA",
    "TraceEmitter",
    "TraceCategory",
    "NullTraceEmitter",
    "NULL_TRACER",
    "parse_sample_spec",
    "read_trace",
]

#: Schema tag written into the header record.
TRACE_SCHEMA = "bartercast-trace/v1"


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

    def sample(self) -> bool:
        """Consume one sampling decision; pair a ``True`` with :meth:`emit_sampled`.

        A rejection is counted as sampled out.
        """
        rate = self.rate
        if rate >= 1.0 or (rate > 0.0 and self._rng.random() < rate):
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


class TraceEmitter(Leg):
    """Writes sampled JSONL trace records to a file.

    Parameters
    ----------
    path:
        Output path; parent directories are created.
    sample:
        Keep probabilities: one rate for every category, a
        ``{category: rate}`` dict (unlisted categories keep everything),
        or a spec string accepted by :func:`parse_sample_spec`.
    seed:
        Root seed of the deterministic sampling streams.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        sample: Union[float, str, Dict[str, float]] = 1.0,
        seed: int = 0,
    ) -> None:
        if isinstance(sample, dict):
            default_rate, rates = 1.0, dict(sample)
        elif isinstance(sample, str):
            default_rate, rates = parse_sample_spec(sample)
        else:
            default_rate, rates = float(sample), {}
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError(f"default_rate must be in [0, 1], got {default_rate}")
        self.sample_rates = rates
        self.default_rate = default_rate
        self.seed = int(seed)
        self.records_written = 0
        self.records_sampled_out = 0
        self._categories: Dict[str, TraceCategory] = {}
        self._t0 = time.perf_counter()
        self.path: Optional[Path] = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
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
        """Flush and close the file; further events are dropped."""
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEmitter {self.path} written={self.records_written}>"


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTraceEmitter>"


class _NullCategory(TraceCategory):
    __slots__ = ()

    def __init__(self, emitter: NullTraceEmitter) -> None:
        super().__init__(emitter, "null", 0.0, 0)

    def sample(self) -> bool:
        return False

    def emit_sampled(self, name, sim_time=None, attrs=None, duration_s=None) -> None:
        pass


#: Shared disabled tracer — the default everywhere.
NULL_TRACER = NullTraceEmitter()


def parse_sample_spec(spec: str) -> Tuple[float, Dict[str, float]]:
    """Parse a ``--trace-sample`` value.

    Accepts a bare rate (``"0.1"``, applied to every category) or a
    comma-separated list of ``category=rate`` pairs with an optional bare
    default (``"0.05,bt.transfer=0.01,sim.event=0"``).  Returns
    ``(default_rate, {category: rate})``.
    """
    default_rate = 1.0
    rates: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, value = part.partition("=")
            name = name.strip()
            if not name:
                raise ValueError(f"empty category in sample spec {spec!r}")
            rates[name] = _parse_rate(value, spec)
        else:
            default_rate = _parse_rate(part, spec)
    return default_rate, rates


def _parse_rate(text: str, spec: str) -> float:
    try:
        rate = float(text)
    except ValueError:
        raise ValueError(f"bad sample rate {text!r} in spec {spec!r}") from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate {rate} out of [0, 1] in spec {spec!r}")
    return rate


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
