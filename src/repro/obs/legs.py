"""The lifecycle every observability leg shares.

A *leg* is one recorder in the :class:`~repro.obs.Observability` bundle.
Whatever it records, it crosses a ``--jobs N`` process boundary and
reaches the manifest, stdout and the export directory the same way:

``enabled``
    Class-level flag; the bundle's loops skip a disabled leg, so null
    objects implement none of the rest.
``mirror()``
    A fresh leg with the same configuration and nothing recorded — what
    a worker process records one task against.  ``None`` when the leg
    cannot leave the process (the tracer: one JSONL stream).
``begin_task(label)``
    A task is about to run; label what it records.
``snapshot()``
    Everything recorded, picklable, complete enough to merge.
``merge(snapshot)``
    Fold a mirror's snapshot in.  Called in task order, never in
    completion order, so merged state is a pure function of the tasks.
``summary()``
    The JSON-safe digest the run manifest stores (under ``extra[note]``
    when :attr:`Leg.note` is set).
``render()``
    The section the CLI prints after the run, or ``None``.
``export(directory)``
    Write artifact files beside the manifest; returns the paths.

Also here: :class:`LabelledCollector`, the shared half of the two
per-simulation recorders' collectors.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Optional, Sequence, Union

__all__ = ["LabelledCollector", "Leg"]


class Leg:
    """Base of every leg: disabled, records nothing, needs no config."""

    enabled = False
    #: Key of :meth:`summary` in the manifest's ``extra``; ``None`` for a
    #: leg the manifest does not note there.
    note: Optional[str] = None

    def mirror(self) -> Optional["Leg"]:
        return type(self)()

    def begin_task(self, label: str) -> None:
        pass

    def snapshot(self):
        return None

    def merge(self, snapshot) -> None:
        pass

    def summary(self):
        return None

    def render(self) -> Optional[str]:
        return None

    def export(self, directory: Union[str, Path]) -> List[Path]:
        return []


class LabelledCollector(Leg):
    """Config carrier + per-task snapshot store.

    The simulator builds one recorder per run from :attr:`config`, labels
    it with :meth:`next_label` and :meth:`attach`-es it; a recorder's
    ``to_dict()`` is its snapshot.  The config is picklable and recorders
    are rebuilt inside workers, so the export is byte-identical between
    ``--jobs N`` and serial runs.  Subclasses set the four constants and
    the CSV layout.
    """

    enabled = True
    config_type: type  #: the picklable config dataclass (all defaults)
    schema = ""  #: schema tag of the combined JSON document
    filename = ""  #: name of the combined JSON document
    prefix = ""  #: per-run CSV files are ``<prefix>_<label>.csv``

    def __init__(self, config=None) -> None:
        self.config = config or self.config_type()
        self._merged: List[dict] = []
        self._recorders: list = []
        self._pending_label: Optional[str] = None
        self._counter = 0

    def mirror(self) -> "LabelledCollector":
        return type(self)(self.config)

    def begin_task(self, label: str) -> None:
        """Name the recorder the simulator attaches next."""
        self._pending_label = label

    def next_label(self) -> str:
        self._counter += 1
        label, self._pending_label = self._pending_label, None
        return label if label is not None else f"run-{self._counter}"

    def attach(self, recorder) -> None:
        if not self.enabled:
            raise RuntimeError(
                f"{type(self).__name__}.attach called; guard with collector.enabled"
            )
        self._recorders.append(recorder)

    def merge(self, snapshot: Optional[Sequence[dict]]) -> None:
        if snapshot:
            self._merged.extend(snapshot)

    def series(self) -> List[dict]:
        """All finished run snapshots, merge-order then local-order."""
        return self._merged + [r.to_dict() for r in self._recorders]

    snapshot = series

    def _csv_lines(self, snap: dict) -> List[str]:
        """One run snapshot as CSV lines, header first."""
        raise NotImplementedError

    def export(self, directory: Union[str, Path]) -> List[Path]:
        """Write one CSV per run plus the combined JSON document.

        Returns the written paths (empty when nothing was recorded).
        """
        all_series = self.series()
        if not all_series:
            return []
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for snap in all_series:
            slug = re.sub(r"[^A-Za-z0-9._-]+", "_", snap.get("label") or "").strip("_")
            path = directory / f"{self.prefix}_{slug or 'run'}.csv"
            path.write_text(
                "".join(line + "\n" for line in self._csv_lines(snap)),
                encoding="utf-8",
            )
            written.append(path)
        combined = directory / self.filename
        combined.write_text(
            json.dumps(
                {"schema": self.schema, "series": all_series}, indent=2, sort_keys=True
            )
            + "\n",
            encoding="utf-8",
        )
        written.append(combined)
        return written
