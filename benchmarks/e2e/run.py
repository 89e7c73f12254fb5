"""End-to-end benchmark of the BarterCast reproduction.

One measured run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload gossip_fast --seed 3 --seconds 15 --trace 0

prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (all tracing off), the per-layer ledger with
``--trace 1`` (span probes from :mod:`probes` installed).

Without ``--trace`` the same file drives whole suites (see
:mod:`suite`)::

    python3 benchmarks/e2e/run.py [--seed 3] [--workload NAME] [--repeats 3] [--out FILE]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --update-golden
"""

from __future__ import annotations

import time

#: Set-up time is counted from here: the interpreter is up, nothing of
#: the program under test has been imported yet.
T0 = time.perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Seeds whose result digests are pinned in golden.json.
GOLDEN_SEEDS = (3, 11)
#: Set-up samples per measured run: this process plus fresh children.
SETUP_SAMPLES = 3
#: Workload measured without span probes: its ledger is the program's
#: own observability output, checked against a plain run.
UNPROBED = "gossip_fast_obs"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> Dict[str, str]:
    """What a pinned digest depends on besides the source tree."""
    import hashlib

    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as features
        except ImportError:
            features = {}
    enabled = ",".join(sorted(k for k, on in features.items() if on))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        # numpy picks SIMD kernels (e.g. for arctan) by CPU feature, and
        # they may round differently.
        "simd": hashlib.sha256(enabled.encode()).hexdigest()[:12] if enabled else "unknown",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args):
    """``(result, wall seconds, cpu seconds)`` of one call, after a
    collection so garbage from set-up is not billed to the timed phase."""
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0


def _setup_in_children(args, count: int) -> List[float]:
    """Set-up time of ``count`` fresh processes, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed),
                "--profile", args.profile,
            ],
            stdout=subprocess.PIPE,
            check=True,
            text=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Checks:
    """Checks attempted and failed in one run (``ops_failed_ratio``)."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool]] = []
        self.notes: List[str] = []

    def add(self, name: str, passed: bool) -> None:
        self.results.append((name, bool(passed)))
        if not passed:
            print(f"CHECK FAILED: {name}", file=sys.stderr)

    def note(self, text: str) -> None:
        self.notes.append(text)
        print(f"note: {text}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.results if not ok)


def _check_golden(checks: Checks, args, workload: str, digest: str, label: str) -> None:
    """Compare against the pinned digest, where one applies."""
    if args.seed not in GOLDEN_SEEDS:
        return
    try:
        with open(args.golden) as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        checks.note(f"{args.golden} not found: pinned digests not compared")
        return
    here = environment()
    if golden.get("made_on") != here:
        checks.note(
            f"golden digests were made on {golden.get('made_on')}, this is {here}: "
            "pinned digests not compared"
        )
        return
    pinned = golden.get(args.profile, {}).get(workload, {}).get(str(args.seed))
    if pinned is None:
        checks.note(f"no pinned digest for {args.profile}/{workload}/seed {args.seed}")
        return
    checks.add(f"{label} == pinned {workload} digest (seed {args.seed})", digest == pinned)


def measure_end_to_end(args, checks: Checks, import_s: float, workdir: str) -> Tuple[dict, dict]:
    """``--trace 0``: the timed phase with all tracing off."""
    from probes import null_span
    from workloads import WORKLOADS

    setup, run, _ = WORKLOADS[args.workload]
    setups = _setup_in_children(args, args.setup_samples - 1)
    walls: List[float] = []
    cpus: List[float] = []
    outcome = None
    began = time.perf_counter()
    while True:
        state, build_s, _ = _timed(setup, args.seed, args.profile, workdir)
        setups.append(import_s + build_s)
        this, wall, cpu = _timed(run, state, null_span)
        del state
        walls.append(wall)
        cpus.append(cpu)
        if outcome is not None:
            checks.add("repeat iteration reproduces the digest", this.digest == outcome.digest)
        outcome = this
        spent = time.perf_counter() - began
        if spent + spent / len(walls) > args.seconds:
            break
    for name, passed in outcome.checks:
        checks.add(name, passed)
    _check_golden(checks, args, args.workload, outcome.digest, "digest")
    if args.workload == UNPROBED:
        _check_golden(checks, args, "gossip_fast", outcome.digest, "obs-on digest")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    detail = {
        "digest": outcome.digest,
        "stats": outcome.stats,
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setups},
    }
    return metrics, detail


def _kernel_counters():
    """The program's own kernel-invocation counters, if still there."""
    try:
        from repro.graph.maxflow import kernel_invocations_delta, snapshot_kernel_invocations
    except ImportError:
        return (lambda: {}), (lambda baseline: {})
    return snapshot_kernel_invocations, kernel_invocations_delta


def measure_per_layer(args, checks: Checks, workdir: str) -> Tuple[dict, dict]:
    """``--trace 1``: an untraced reference run, then the same run with
    the span probes installed; the ledger comes from the second, the
    tracing overhead and the *probes change nothing* check from both."""
    import workloads
    from ledger import build_ledger
    from probes import SpanLog, installed, null_span

    if args.workload == UNPROBED:
        # off == on: a plain gossip_fast run is the reference.
        setup, run, _ = workloads.WORKLOADS["gossip_fast"]
        reference, plain_wall, _ = _timed(run, setup(args.seed, args.profile, workdir), null_span)
        setup, run, _ = workloads.WORKLOADS[UNPROBED]
        outcome, wall, _ = _timed(run, setup(args.seed, args.profile, workdir), null_span)
        checks.add("obs on == obs off digest", outcome.digest == reference.digest)
        outcome.layer["obs.all_on.wall_ratio"] = wall / plain_wall
        log, traced_wall = None, None
        kernel_calls: Dict[str, int] = {}
    else:
        setup, run, cross_check = workloads.WORKLOADS[args.workload]
        state = setup(args.seed, args.profile, workdir)
        reference, plain_wall, _ = _timed(run, state, null_span)
        del state
        snapshot, delta = _kernel_counters()
        log = SpanLog(run_id=f"{args.workload}-{args.profile}-seed{args.seed}")
        with installed(log):
            state = setup(args.seed, args.profile, workdir)
            # The ledger explains the timed phase; set-up has its own
            # end-to-end metric.
            log.reset()
            baseline = snapshot()
            gc.collect()
            t0 = time.perf_counter()
            with log.span("bench.timed"):
                outcome = run(state, log.span)
            traced_wall = time.perf_counter() - t0
            kernel_calls = delta(baseline)
        checks.add("traced digest == untraced digest", outcome.digest == reference.digest)
        if cross_check is not None:
            cross_check(state, outcome)
        del state
        for note in log.notes:
            checks.note(note)
        if args.trace_out:
            log.dump(args.trace_out)
    for name, passed in outcome.checks:
        checks.add(name, passed)
    _check_golden(checks, args, args.workload, outcome.digest, "digest")
    metrics = build_ledger(
        log, traced_wall, plain_wall, kernel_calls, outcome.stats, outcome.layer
    )
    detail = {"digest": outcome.digest, "stats": outcome.stats}
    return metrics, detail


def _number(value: Optional[float]) -> float:
    return float(value) if value is not None and math.isfinite(value) else 0.0


@contextmanager
def _workdir(tag: str) -> Iterator[str]:
    """A scratch directory inside the benchmark's own tree, removed on
    exit (and its parent too, when this process is the last one out)."""
    workdir = HERE / "_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield str(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run_once(args, import_s: float) -> int:
    """One measured run; prints the result object as the last line."""
    spec = load_spec()
    checks = Checks()
    with _workdir(args.workload) as workdir:
        if args.trace:
            values, detail = measure_per_layer(args, checks, workdir)
            declared = spec["per_layer"]
        else:
            values, detail = measure_end_to_end(args, checks, import_s, workdir)
            declared = spec["end_to_end"]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    checks.add(f"no undeclared metric {undeclared}", not undeclared)
    checks.add("the run completed", True)
    result = {
        "correct": checks.failed == 0,
        "attempted": len(checks.results),
        "failed": checks.failed,
        # A layer that does not run in this workload (null) and a
        # statistic that is undefined (NaN) read 0 here, so the line
        # stays strict JSON; the detail file keeps the distinction.
        "metrics": {
            m["name"]: {"value": _number(values.get(m["name"])), "unit": m["unit"]}
            for m in declared
        },
    }
    if args.detail_out:
        detail.update(
            workload=args.workload, seed=args.seed, profile=args.profile, trace=args.trace,
            checks=checks.results, notes=checks.notes, metrics=values, result=result,
        )
        with open(args.detail_out, "w") as fh:
            json.dump(detail, fh)
    print(json.dumps(result))
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="workload name (one measured run needs it; a suite takes it as a filter)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, help="how long one run measures: iterations repeat while another fits (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), help="make ONE measured run: 0 = end-to-end metrics, tracing off; 1 = per-layer ledger, span probes on")
    p.add_argument("--profile", choices=("full", "tiny"), default="full", help="tiny: CI-sized inputs for the self-test")
    p.add_argument("--golden", default=str(GOLDEN), help="pinned digests to check against")
    p.add_argument("--detail-out", help="also write digest, samples, checks and null-preserving metrics here")
    p.add_argument("--trace-out", help="with --trace 1: write every span as JSON here")
    p.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help="set-up time samples per run (this process + fresh children)")
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up seconds, exit")
    p.add_argument("--repeats", type=int, default=3, help="suite: untraced runs per workload, interleaved")
    p.add_argument("--out", help="suite: write the report as JSON here")
    p.add_argument("--smoke", action="store_true", help="suite at the tiny profile, 1 repeat")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two suite reports")
    p.add_argument("--update-golden", action="store_true", help="re-pin golden.json (refused when src/ is dirty)")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        import suite

        return suite.compare(args.compare[0], args.compare[1], load_spec())
    if not SRC.is_dir():
        print(f"error: {SRC} not found: the benchmark runs the program from source", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.update_golden:
        import suite

        return suite.update_golden(args, load_spec(), environment(), GOLDEN_SEEDS)
    if args.setup_only or args.trace is not None:
        if args.workload is None:
            print("error: --workload is required", file=sys.stderr)
            return 2
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        import_s = time.perf_counter() - T0
        if args.setup_only:
            with _workdir("setup") as workdir:
                workloads.WORKLOADS[args.workload].setup(args.seed, args.profile, workdir)
                print(repr(time.perf_counter() - T0))
            return 0
        if args.seconds is None:
            args.seconds = float(load_spec()["run_seconds"])
        return run_once(args, import_s)
    import suite

    return suite.run_suite(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
