"""Smoke tests: the fast examples must run end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    run_example("quickstart.py", [])
    out = capsys.readouterr().out
    assert "Direct experience" in out
    assert "Maxflow bound" in out


def test_trace_tooling_runs(capsys):
    run_example("trace_tooling.py", ["--seed", "3"])
    out = capsys.readouterr().out
    assert "mean online fraction" in out


def test_deployment_crawl_runs(capsys):
    run_example("deployment_crawl.py", ["--peers", "400", "--seed", "2"])
    out = capsys.readouterr().out
    assert "Figure 4(b)" in out


def test_liar_attack_runs(capsys):
    run_example("liar_attack.py", [])
    out = capsys.readouterr().out
    assert "hard cap from 80 MB real service" in out


def test_whitewash_defense_runs(capsys):
    run_example("whitewash_defense.py", [])
    out = capsys.readouterr().out
    assert "identities burned" in out
