"""Run manifests: every exported figure becomes attributable and diffable.

A manifest is a single JSON document written next to a run's ``--export``
output (or its trace file) that captures everything needed to attribute
and reproduce the figures it accompanies:

* the command, its arguments, profile, and root seed;
* the package version, Python/platform, and the git revision (when the
  working tree is a repository);
* wall-clock seconds per run phase (simulate / report / export / ...);
* the final metrics snapshot and trace bookkeeping, when observability
  was enabled.

Two manifests from "the same" experiment can be diffed field-by-field;
any divergence in config, code revision, or final counters explains a
divergence in the series.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Union

from repro import __version__

__all__ = [
    "MANIFEST_SCHEMA",
    "ManifestBuilder",
    "dependency_versions",
    "describe",
    "git_revision",
    "read_manifest",
]

#: Schema tag written into every manifest.
MANIFEST_SCHEMA = "bartercast-manifest/v1"

#: Default file name used when writing next to an export directory.
MANIFEST_FILENAME = "run_manifest.json"


def describe(obj):
    """Best-effort conversion of config objects into JSON-safe values.

    Dataclasses become dicts (recursively), mappings and sequences recurse,
    scalars pass through, and anything else falls back to ``repr`` — good
    enough to make two configs diffable without every knob class having to
    implement a serializer.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: describe(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): describe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [describe(v) for v in obj]
    return repr(obj)


def dependency_versions() -> dict:
    """Versions of the numeric dependencies that can change results or
    performance (the columnar backend leans on numpy); ``None`` for
    packages absent from the environment.  Read from the installed
    distributions' metadata: scipy and networkx are test-only
    dependencies and are not imported to be described."""
    from importlib import metadata  # not needed unless a manifest is written

    versions = {}
    for name in ("numpy", "scipy", "networkx"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


class ManifestBuilder:
    """Accumulates one run's provenance and writes the manifest.

    Parameters
    ----------
    command:
        The CLI subcommand (or programmatic entry point) being run.
    args:
        The parsed arguments / knobs of the run (made JSON-safe via
        :func:`describe`).
    profile / seed:
        Scenario profile name and root seed, when applicable.
    config:
        The full scenario/config object for the run, when applicable.
    """

    def __init__(
        self,
        command: str,
        args: Optional[dict] = None,
        profile: Optional[str] = None,
        seed: Optional[int] = None,
        config=None,
    ) -> None:
        self.command = command
        self.args = describe(args or {})
        self.profile = profile
        self.seed = seed
        self.config = describe(config) if config is not None else None
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        #: Accumulated wall seconds per phase, in first-seen order.
        self.phases: Dict[str, float] = {}
        self.extra: Dict[str, object] = {}
        #: Fault-injection knobs of the run; ``None`` (the default) omits
        #: the section entirely, so fault-free manifests are unchanged.
        self.faults = None

    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a run phase; repeated phases accumulate."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def note(self, key: str, value) -> None:
        """Attach an arbitrary JSON-safe fact to the manifest."""
        self.extra[key] = describe(value)

    def set_faults(self, faults) -> None:
        """Record the run's fault-injection knobs (``--loss/--dup/--delay/
        --churn`` or a sweep spec).  Pass ``None`` — or never call — for a
        fault-free run: the manifest then carries no ``faults`` section,
        keeping it byte-compatible with pre-fault-layer manifests."""
        self.faults = describe(faults) if faults is not None else None

    # ------------------------------------------------------------------
    def build(self, metrics=None, tracer=None) -> dict:
        """Materialize the manifest document.

        ``metrics`` / ``tracer`` are the run's registry and trace emitter;
        disabled (null) instances contribute ``None`` sections.
        """
        doc = {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "args": self.args,
            "profile": self.profile,
            "seed": self.seed,
            "config": self.config,
            "package_version": __version__,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "dependencies": dependency_versions(),
            "git_rev": git_revision(Path(__file__).resolve().parent),
            "started_unix": self.started_unix,
            "wall_seconds_total": time.perf_counter() - self._t0,
            "wall_seconds_by_phase": {
                name: round(seconds, 6) for name, seconds in self.phases.items()
            },
            "metrics": (
                metrics.summary() if metrics is not None and metrics.enabled else None
            ),
            "trace": (
                {
                    "path": str(tracer.path) if tracer.path else None,
                    "records_written": tracer.records_written,
                    "records_sampled_out": tracer.records_sampled_out,
                    "default_rate": tracer.default_rate,
                    "sample_rates": dict(tracer.sample_rates),
                }
                if tracer is not None and tracer.enabled
                else None
            ),
        }
        if self.faults is not None:
            doc["faults"] = self.faults
        if self.extra:
            doc["extra"] = dict(self.extra)
        return doc

    def write(
        self,
        destination: Union[str, Path],
        metrics=None,
        tracer=None,
    ) -> Path:
        """Write the manifest as JSON to the file ``destination``, making
        its directory if need be; returns the written path."""
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        doc = self.build(metrics=metrics, tracer=tracer)
        destination.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return destination


def read_manifest(path: Union[str, Path]) -> dict:
    """Load a manifest, validating the schema tag."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path} has schema {doc.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    return doc
