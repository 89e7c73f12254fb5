"""Self-test of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  One
``run.py --smoke`` suite (tiny profile, every workload, untraced and
traced) feeds most checks; the rest drive the probes and the comparison
tool in-process.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return json.load(fh)


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()
    assert not any(part.startswith("/") or ".." in part for part in spec["command"])


def test_ledger_and_declaration_name_the_same_metrics(spec):
    assert sorted(ledger.all_names()) == sorted(m["name"] for m in spec["per_layer"])


def test_smoke_emits_every_declared_metric_and_no_other(spec, report):
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, rec in report["workloads"].items():
        assert set(rec["end_to_end"]) == end_to_end, name
        assert set(rec["per_layer"]) == per_layer, name
        assert rec["ops_failed_ratio"] == 0 and not rec["failed_checks"], name
        for summary in rec["end_to_end"].values():
            assert summary["median"] > 0
    assert report["claim"] is None


def test_every_layer_metric_is_measured_by_some_workload(spec, report):
    measured = {
        name
        for rec in report["workloads"].values()
        for name, value in rec["per_layer"].items()
        if value is not None
    }
    # The tiny profile never reaches the general-graph kernels or the
    # row-wise batch fallback.
    unreached = {m["name"] for m in spec["per_layer"]} - measured
    assert all(name.startswith("graph.maxflow.kernel.") for name in unreached), unreached


def test_self_times_and_unattributed_sum_to_the_traced_wall(report):
    probed = 0
    for name, rec in report["workloads"].items():
        layer = rec["per_layer"]
        if layer["bench.traced_wall_s"] is None:
            assert name == run.UNPROBED
            continue
        probed += 1
        total = sum(layer[t] or 0.0 for t in set(ledger.TIME_METRICS)) + layer["bench.unattributed_s"]
        assert total == pytest.approx(layer["bench.traced_wall_s"], rel=0.01), name
        assert layer["bench.trace_overhead_ratio"] > 0
    assert probed == 4


def test_rep_scale_runs_no_gossip_pss_or_bittorrent_span(report):
    layer = report["workloads"]["rep_scale_30k"]["per_layer"]
    for name, value in layer.items():
        if name.startswith(("pss.", "bittorrent.", "sim.event.", "core.node.create_message", "core.history.")):
            assert value is None, name
    assert layer["core.node.reputation.calls"] > 0


def _targets():
    for module, attr in [(p.module, p.attr) for p in probes.PROBES] + [
        ("repro.sim.engine", "Simulator.schedule_at"),
        ("repro.bittorrent.simulator", "CommunitySimulator.add_sampler"),
    ]:
        owner, leaf = probes._resolve(module, attr)
        yield owner, leaf


def test_probes_restore_every_patched_attribute():
    before = [(owner, leaf, vars(owner)[leaf]) for owner, leaf in _targets()]
    with probes.installed(probes.SpanLog("t")) as log:
        assert not log.notes
        for owner, leaf, original in before:
            assert vars(owner)[leaf] is not original
    for owner, leaf, original in before:
        assert vars(owner)[leaf] is original


def test_missing_probe_target_is_a_note_not_an_error(monkeypatch):
    gone = probes.Probe("core.node.gone", "repro.core.node", "BarterCastNode.no_such_method")
    monkeypatch.setattr(probes, "PROBES", probes.PROBES + (gone,))
    with probes.installed(probes.SpanLog("t")) as log:
        assert len(log.notes) == 1 and "no_such_method" in log.notes[0]


def test_corrupted_golden_fails_the_run(tmp_path):
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    golden["made_on"] = run.environment()
    golden["tiny"]["gossip_fast"]["3"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc = subprocess.run(
        RUN + ["--workload", "gossip_fast", "--seed", "3", "--trace", "0", "--seconds", "1",
               "--profile", "tiny", "--setup-samples", "1", "--golden", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_compare_agrees_with_itself_and_flags_a_regression(tmp_path, spec, report, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(report))
    assert suite.compare(str(a), str(a), spec) == 0
    assert "worse" not in capsys.readouterr().out

    slower = copy.deepcopy(report)
    for key in ("median", "min", "max"):
        slower["workloads"]["gossip_fast"]["end_to_end"]["wall_s"][key] *= 2
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    assert suite.compare(str(a), str(b), spec) == 1

    miscounted = copy.deepcopy(report)
    miscounted["workloads"]["faults_fast"]["per_layer"]["core.node.create_message.calls"] += 1
    b.write_text(json.dumps(miscounted))
    assert suite.compare(str(a), str(b), spec) == 1
    assert "core.node.create_message.calls" in capsys.readouterr().out


def test_run_fails_without_the_program_source(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(HERE), str(bare / "benchmarks" / "e2e")], check=True)
    subprocess.run(["cp", str(ROOT / "BENCHMARK.json"), str(bare)], check=True)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "gossip_fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
