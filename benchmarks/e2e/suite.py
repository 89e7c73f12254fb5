"""Whole-suite runner, report comparison and golden re-pinning.

A suite is many measured runs of ``run.py`` — each a fresh child
process, started one at a time, untraced repeats interleaved round-robin
across workloads so that slow drift of the host hits every workload
alike — followed by one traced run per workload.  Timings are reported
as median / min / max / count; simulated statistics and digests must be
identical across repeats.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
WORK = HERE / "_work"

__all__ = ["run_suite", "compare", "update_golden"]


def _child(workload: str, seed: int, trace: int, args, extra: List[str] = ()) -> dict:
    """One measured run in a fresh process; returns its detail record."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        detail = os.path.join(tmp, "detail.json")
        cmd = [
            sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--profile", args.profile,
            "--golden", args.golden, "--detail-out", detail,
            "--setup-samples", str(args.setup_samples), *extra,
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            return {"workload": workload, "raised": True, "checks": [["the run completed", False]],
                    "metrics": {}, "stats": {}, "digest": None, "notes": [], "samples": {}}
        with open(detail) as fh:
            return json.load(fh)


def _same(a, b) -> bool:
    """Equality that also holds for NaN statistics."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _git_head() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _summary(values: List[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "count": len(values),
    }


def _ratio(num: dict, den: dict) -> dict:
    """Ratio of two timing summaries with the range their spreads allow;
    ``unresolved`` when that range straddles 1.0."""
    low, high = num["min"] / den["max"], num["max"] / den["min"]
    return {
        "value": num["median"] / den["median"],
        "low": low,
        "high": high,
        "unresolved": low < 1.0 < high,
    }


def run_suite(args, spec: dict) -> int:
    """Run the suite, print every metric by name with its unit, write
    ``--out``; non-zero exit when any check failed."""
    import numpy

    if args.smoke:
        args.profile, args.repeats, args.setup_samples = "tiny", 1, 1
        args.seconds = args.seconds or 1.0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        names = [args.workload]
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    header = {
        "nproc": nproc,
        "load1_start": load_start,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_head": _git_head(),
        "seed": args.seed,
        "profile": args.profile,
        "repeats": args.repeats,
    }
    print("# e2e benchmark: " + " ".join(f"{k}={v}" for k, v in header.items()))
    if load_start > nproc - 1:
        print(f"# WARNING: load average {load_start:.2f} exceeds nproc - 1 = {nproc - 1}: timings will be noisy")

    # One untimed warm-up import, so the first measured child does not
    # pay for cold page cache and stale bytecode.
    subprocess.run(
        [sys.executable, RUN, "--setup-only", "--workload", names[0], "--profile", "tiny"],
        stdout=subprocess.DEVNULL,
    )
    runs: Dict[str, List[dict]] = {w: [] for w in names}
    for _ in range(args.repeats):
        for w in names:
            runs[w].append(_child(w, args.seed, 0, args))
    traced = {
        w: _child(
            w, args.seed, 1, args,
            ["--trace-out", f"{args.trace_out}.{w}.json"] if args.trace_out else [],
        )
        for w in names
    }

    report = {"header": header, "workloads": {}}
    failed = attempted = 0
    for w in names:
        records = runs[w] + [traced[w]]
        checks = [c for r in records for c in r["checks"]]
        first = runs[w][0]
        for r in runs[w][1:]:
            checks.append(["repeats agree on digest and statistics",
                           _same([r["digest"], r["stats"]], [first["digest"], first["stats"]])])
        checks.append(["traced run agrees with untraced repeats on digest and statistics",
                       _same([traced[w]["digest"], traced[w]["stats"]], [first["digest"], first["stats"]])])
        bad = [name for name, ok in checks if not ok]
        failed += len(bad)
        attempted += len(checks)
        end_to_end = {
            m["name"]: _summary([r["metrics"][m["name"]] for r in runs[w] if r["metrics"]])
            for m in spec["end_to_end"]
            if any(r["metrics"] for r in runs[w])
        }
        report["workloads"][w] = {
            "end_to_end": end_to_end,
            "ops_failed_ratio": len(bad) / len(checks),
            "failed_checks": bad,
            "exact": first["stats"],
            "digest": first["digest"],
            "per_layer": traced[w]["metrics"],
            "notes": sorted({n for r in records for n in r["notes"]}),
        }
    by = report["workloads"]
    if "gossip_fast" in by and "gossip_fast_obs" in by:
        a, b = by["gossip_fast_obs"]["end_to_end"], by["gossip_fast"]["end_to_end"]
        if "wall_s" in a and "wall_s" in b:
            report["obs.all_on.wall_ratio"] = _ratio(a["wall_s"], b["wall_s"])
    header["load1_end"] = os.getloadavg()[0]
    # This benchmark measures; a gain is claimed by the change that makes it.
    report["claim"] = None

    _print_report(report, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(f"# checks: {attempted - failed}/{attempted} passed; load1 {header['load1_start']:.2f} -> {header['load1_end']:.2f}")
    return 1 if failed else 0


def _print_report(report: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w, rec in report["workloads"].items():
        print(f"\n== {w}  digest={rec['digest'] and rec['digest'][:16]}  ops_failed_ratio={rec['ops_failed_ratio']:.4f}")
        for bad in rec["failed_checks"]:
            print(f"   FAILED: {bad}")
        for name, s in rec["end_to_end"].items():
            print(f"   {name:<44} {s['median']:>14.4f} {units[name]:<6} min {s['min']:.4f} max {s['max']:.4f} n={s['count']}")
        for name, value in rec["exact"].items():
            print(f"   {name:<44} {value!r:>14} (simulated, exact)")
        for name, value in rec["per_layer"].items():
            if value is not None:
                print(f"   {name:<44} {value:>14.6g} {units.get(name, '')}")
        for note in rec["notes"]:
            print(f"   note: {note}")
    ratio = report.get("obs.all_on.wall_ratio")
    if ratio:
        flag = "  UNRESOLVED (range straddles 1.0)" if ratio["unresolved"] else ""
        print(f"\nobs.all_on.wall_ratio (gossip_fast_obs / gossip_fast medians) = "
              f"{ratio['value']:.3f}  range [{ratio['low']:.3f}, {ratio['high']:.3f}]{flag}")


# ----------------------------------------------------------------------
def _verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for B against A."""
    # Orient both sides so that a larger number is worse.
    sign = 1.0 if better == "lower" else -1.0
    a_best, a_worst = sorted((sign * a["min"], sign * a["max"]))
    b_best, b_worst = sorted((sign * b["min"], sign * b["max"]))
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max((s["max"] - s["min"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        # Too noisy to call, unless every run of one side beats every
        # run of the other.
        if b_worst < a_best:
            return "better"
        if b_best > a_worst and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per workload x end-to-end metric; exact statistics,
    digests and ``.calls`` counts must match.  Non-zero on any ``worse``."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    worse = 0
    print(f"{'workload':<18} {'metric':<14} {'A median':>12} {'B median':>12} {'bound':>6}  verdict")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w:<18} missing from B: worse")
            worse += 1
            continue
        ra, rb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            sa, sb = ra["end_to_end"].get(m["name"]), rb["end_to_end"].get(m["name"])
            if sa is None or sb is None:
                continue
            verdict = _verdict(sa, sb, m["better"], m["bound"])
            worse += verdict == "worse"
            print(f"{w:<18} {m['name']:<14} {sa['median']:>12.4f} {sb['median']:>12.4f} {m['bound']:>6.2f}  {verdict}")
        exact_a = {"digest": ra["digest"], "ops_failed_ratio": ra["ops_failed_ratio"], **ra["exact"],
                   **{k: v for k, v in ra["per_layer"].items() if k.endswith(".calls")}}
        exact_b = {"digest": rb["digest"], "ops_failed_ratio": rb["ops_failed_ratio"], **rb["exact"],
                   **{k: v for k, v in rb["per_layer"].items() if k.endswith(".calls")}}
        differing = sorted(
            k for k in exact_a.keys() | exact_b.keys() if not _same(exact_a.get(k), exact_b.get(k))
        )
        verdict = "worse" if differing else "same"
        worse += bool(differing)
        print(f"{w:<18} {'exact':<14} {len(exact_a):>12} {len(exact_b):>12} {0:>6.2f}  {verdict}"
              + (f"  differing: {', '.join(differing)}" if differing else ""))
    return 1 if worse else 0


# ----------------------------------------------------------------------
def update_golden(args, spec: dict, made_on: dict, seeds) -> int:
    """Re-pin golden.json from this tree; refused when ``src/`` is dirty,
    so a pinned digest always names a committed program."""
    try:
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot tell whether src/ is clean ({exc}); golden not updated", file=sys.stderr)
        return 2
    if dirty:
        print(f"error: src/ has uncommitted changes; golden not updated:\n{dirty}", file=sys.stderr)
        return 2
    golden: dict = {"made_on": made_on}
    # One iteration and no extra set-up samples: only the digest is read.
    args.seconds, args.setup_samples = 1.0, 1
    for profile in ("full", "tiny"):
        args.profile = profile
        golden[profile] = {}
        for w in (w["name"] for w in spec["workloads"]):
            golden[profile][w] = {}
            for seed in seeds:
                record = _child(w, seed, 0, args)
                if record["digest"] is None:
                    print(f"error: {profile}/{w}/seed {seed} did not run; golden not updated", file=sys.stderr)
                    return 1
                golden[profile][w][str(seed)] = record["digest"]
                print(f"{profile:<5} {w:<18} seed {seed:<3} {record['digest']}")
    with open(args.golden, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0
