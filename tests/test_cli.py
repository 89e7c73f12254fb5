"""Tests for the command-line interface.

The CLI drives full experiments; to keep these tests fast we monkeypatch
the scenario lookup so ``--profile fast`` resolves to the tiny profile.
"""

import pytest

from repro import cli
from repro.experiments import ScenarioConfig


@pytest.fixture(autouse=True)
def tiny_profiles(monkeypatch):
    monkeypatch.setattr(
        ScenarioConfig,
        "named",
        classmethod(lambda cls, profile, seed=42: ScenarioConfig.tiny(seed)),
    )


class TestCli:
    def test_fig1_runs(self, capsys):
        assert cli.main(["fig1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out

    def test_fig2_runs(self, capsys):
        assert cli.main(["fig2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(b)" in out

    def test_fig3_single_kind(self, capsys):
        assert cli.main(["fig3", "--kind", "ignore", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out
        assert "Figure 3(b)" not in out

    def test_fig4_runs(self, capsys):
        assert cli.main(["fig4", "--peers", "300", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(b)" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["figure99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])


#: Flags no run can honour, one per owning rule.
BAD_FLAGS = [
    "fig1 --loss 1.5",
    "faults --churn -1",
    "faults --losses 0,abc",
    "faults --engine foo --jobs 2",
    "fig1 --trace {tmp}/t.jsonl --trace-sample 2",
    "scalability --peers 0",
    "fig4 --peers 5",
    "explain --peer 0 --subject 0",
    "faults --losses ,",
    "fig1 --jobs 0",
]


@pytest.mark.parametrize("command", BAD_FLAGS)
def test_bad_flag_is_a_usage_error_before_anything_runs(command, capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        cli.main(command.format(tmp=tmp_path).split())
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "bartercast: error:" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", ["5", "nan", "-3"])
@pytest.mark.parametrize("command", ["faults --losses 0,0.3", "explain --peer 0 --policy ban"])
def test_bad_delta_is_a_usage_error_before_anything_runs(command, delta, capsys, monkeypatch):
    """A ban threshold outside [-1, 0] (NaN included) exits 2 before the
    command's handler, so no simulation runs."""

    def must_not_run(*_):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, must_not_run))
    with pytest.raises(SystemExit) as exit_:
        cli.main(f"{command} --seed 3 --delta {delta}".split())
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "bartercast: error: delta must be in [-1, 0]" in err


@pytest.mark.parametrize(
    "command, rule",
    [
        ("faults --profile tiny --losses 0 --delay nan", "delay_max"),
        ("faults --profile tiny --losses 0 --delay inf", "delay_max"),
        ("faults --profile tiny --losses 0 --churn nan", "churn_rate"),
        ("faults --profile tiny --losses 0 --churn inf", "churn_rate"),
        ("fig1 --delay nan", "delay_max"),
        ("fig2 --churn inf", "churn_rate"),
    ],
)
def test_non_finite_fault_flag_is_a_usage_error(command, rule, capsys, monkeypatch):
    """A NaN or infinite delay or churn rate exits 2 before the command's
    handler runs (a NaN delay delivers nothing; an infinite churn rate
    never ends the run)."""

    def must_not_run(*_):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, must_not_run))
    with pytest.raises(SystemExit) as exit_:
        cli.main(f"{command} --seed 3".split())
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"bartercast: error: {rule} must be finite and non-negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("fig1 --profile tiny --seed -1", "seed must be a non-negative integer, got -1"),
        ("faults --profile tiny --seed -4 --losses 0", "seed must be a non-negative integer, got -4"),
        ("faults --profile tiny --seed 3 --top-k -1", "--top-k must be non-negative, got -1"),
        ("explain --profile tiny --seed 3 --peer 0 --top-k -3", "--top-k must be non-negative, got -3"),
        ("fig1 --profile tiny --seed 3 --timeseries nan", "time-series cadence must be finite, got nan"),
        ("fig2 --profile tiny --seed 3 --timeseries inf", "time-series cadence must be finite, got inf"),
        ("fig1 --profile tiny --seed 3 --timeseries 1e-9",
         "time-series cadence 1e-09 s is below the round interval (60 s)"),
        ("whitewash --seed 3 --timeseries nan", "time-series cadence must be finite, got nan"),
    ],
)
def test_bad_seed_top_k_or_cadence_is_a_usage_error(command, message, capsys, monkeypatch):
    """A negative seed (numpy's seed sequence would raise once the run
    started), a negative ``--top-k`` (which explained nobody) and a
    cadence that is not finite or finer than a round exit 2 before the
    command's handler runs."""

    def must_not_run(*_):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, must_not_run))
    with pytest.raises(SystemExit) as exit_:
        cli.main(command.split())
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"bartercast: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cadence", [[], ["-1"], ["0"], ["60"], ["7200"]])
def test_timeseries_cadence_at_or_above_a_round_is_accepted(cadence, monkeypatch):
    """The bare flag (stored as -1.0) and values <= 0 ride the stats
    cadence; a cadence of one round or more is taken as given."""
    ran = []
    monkeypatch.setattr(
        cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, lambda args, *_: ran.append(args))
    )
    assert cli.main(["fig1", "--profile", "tiny", "--seed", "3", "--timeseries", *cadence]) == 0
    assert ran[0].timeseries == (float(cadence[0]) if cadence else -1.0)


class TestNewSubcommands:
    def test_whitewash_runs(self, capsys):
        assert cli.main(["whitewash", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Whitewashing defenses" in out
        assert "adaptive" in out

    def test_scalability_runs(self, capsys):
        assert cli.main(["scalability", "--peers", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Scalability" in out
        assert "query growth factor" in out

    def test_fig1_export(self, capsys, tmp_path):
        target = tmp_path / "series"
        assert cli.main(["fig1", "--seed", "3", "--export", str(target)]) == 0
        files = sorted(p.name for p in target.iterdir())
        assert files == [
            "fig1a_reputation_over_time.tsv",
            "fig1b_contribution_vs_reputation.tsv",
            "run_manifest.json",
        ]

    def test_fig4_export(self, capsys, tmp_path):
        target = tmp_path / "series"
        assert (
            cli.main(
                ["fig4", "--peers", "300", "--seed", "3", "--export", str(target)]
            )
            == 0
        )
        files = sorted(p.name for p in target.iterdir())
        assert files == [
            "fig4a_net_contribution.tsv",
            "fig4b_reputation_cdf.tsv",
            "run_manifest.json",
        ]

    def test_export_dir_with_a_dot_is_a_directory(self, capsys, tmp_path):
        """A not-yet-made ``--export`` directory whose name has a dot gets
        the manifest and every leg inside it, not beside it."""
        target = tmp_path / "d.j1"
        assert cli.main([
            "dissemination", "--profile", "tiny", "--seed", "3", "--loss", "0.2",
            "--churn", "0.1", "--export", str(target),
        ]) == 0
        assert sorted(p.name for p in target.iterdir()) == [
            "dissemination.json", "dissemination_run.csv", "run_manifest.json",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.j1"]

    def test_all_fig4_peers_override(self, task_command_runs):
        import json

        # ``all --fig4-peers 300``, its pooled tasks named in the manifest.
        stdout, files = task_command_runs["all", 2]
        note = json.loads(files["run_manifest.json"])["extra"]["parallel"]
        assert [t["task_id"] for t in note["tasks"] if "fig4" in t["task_id"]] == [
            "fig4/300p"
        ]
        assert "Figure 4(b)" in stdout


class TestTelemetryFlags:
    def test_timeseries_and_prof_export_artifacts(self, capsys, tmp_path):
        assert cli.main([
            "fig1", "--seed", "3", "--timeseries", "--prof", "--metrics",
            "--export", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "== Profile ==" in out
        assert (tmp_path / "run_manifest.json").exists()
        assert (tmp_path / "timeseries.json").exists()
        assert (tmp_path / "profile_chrome.json").exists()
        csvs = list(tmp_path.glob("timeseries_*.csv"))
        assert len(csvs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("t,coverage,rank_inversion_rate")
        import json

        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "timeseries" in doc["extra"] and "profile" in doc["extra"]

    def test_timeseries_cadence_value(self, capsys, tmp_path):
        assert cli.main([
            "fig1", "--seed", "3", "--timeseries", "7200",
            "--export", str(tmp_path),
        ]) == 0
        csvs = list(tmp_path.glob("timeseries_*.csv"))
        rows = csvs[0].read_text().strip().splitlines()[1:]
        assert float(rows[0].split(",")[0]) == 7200.0


class TestReportSubcommand:
    def test_report_from_export_dir(self, capsys, tmp_path):
        assert cli.main([
            "fig1", "--seed", "3", "--metrics", "--export", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== Run: fig1 ==" in out
        assert "== Metrics ==" in out

    def test_report_from_bare_manifest_path(self, capsys, tmp_path):
        assert cli.main([
            "fig1", "--seed", "3", "--export", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        manifest = tmp_path / "run_manifest.json"
        assert cli.main(["report", str(manifest)]) == 0
        assert "== Run: fig1 ==" in capsys.readouterr().out

    def test_report_schema_mismatch_readable(self, capsys, tmp_path):
        bad = tmp_path / "run_manifest.json"
        bad.write_text('{"schema": "something/v99"}')
        assert cli.main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "something/v99" in err and "Traceback" not in err

    def test_report_missing_path(self, capsys, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope")]) == 2
        assert "no run manifest" in capsys.readouterr().err


class TestChromeTraceSubcommand:
    def test_convert_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert cli.main([
            "fig1", "--seed", "3", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        out_path = tmp_path / "run.chrome.json"
        assert cli.main(["chrome-trace", str(trace)]) == 0
        assert out_path.exists()
        import json

        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]

    def test_missing_trace_errors(self, capsys, tmp_path):
        assert cli.main(["chrome-trace", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestExplainEngines:
    def test_rival_engine_replay_and_comparison_bytes(self, capsys, tmp_path):
        """``explain --engine gossip,bartercast,ratio`` replays under gossip
        with the ban policy (rival scores drive the bans) and scores
        bartercast on a gossip node.  Stdout (minus ``[done in …]``, with
        the export directory as ``D``) and the export are pinned bytes."""
        import hashlib

        target = tmp_path / "explain.json"
        assert cli.main([
            "explain", "--profile", "tiny", "--seed", "3", "--peer", "0",
            "--top-k", "2", "--policy", "ban",
            "--engine", "gossip,bartercast,ratio", "--export", str(target),
        ]) == 0
        out = "".join(
            line
            for line in capsys.readouterr().out.replace(str(tmp_path), "D").splitlines(True)
            if not line.startswith("[done in")
        )
        assert "[gossip]" in out and "[bartercast]" in out and "[ratio]" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f335a95d9eed91859d78274312309e2cc0ea5a7963120c05d9aa4715b3445886"
        )
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "fd59596af784ea914fa0229a852e7f58195b81cd1fd6c0bfb9ba4bc6b57b9175"
        )


def test_fresh_interpreter_needs_neither_scipy_nor_networkx():
    """``import repro.cli`` and a whole figure run pull in numpy alone:
    scipy (0.7 s and 74 MiB per process when ``analysis.stats`` imported
    it) and networkx stay out of ``sys.modules``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import repro.cli\n"
        "heavy = lambda: sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'networkx'))\n"
        "assert heavy() == [], ('after import', heavy())\n"
        "assert repro.cli.main(['fig1', '--profile', 'tiny']) == 0\n"
        "assert heavy() == [], ('after fig1', heavy())\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Figure 1(a)" in done.stdout
