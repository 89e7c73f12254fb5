"""Shared fixtures for the benchmark suite.

Every figure bench runs on the ``fast`` scenario profile (seconds-to-
minutes per condition) and prints the regenerated series in the paper's
format; EXPERIMENTS.md records a full-scale (``paper`` profile) run made
through the CLI.  The ablations import their oracles (Ford–Fulkerson,
the global-knowledge sampler) from the tests' reference model, which is
put on ``sys.path`` here as ``model``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store",
        default="fast",
        choices=("tiny", "fast", "paper"),
        help="scenario scale for the figure benchmarks",
    )


@pytest.fixture(scope="session")
def scenario(request) -> ScenarioConfig:
    """The scenario profile all figure benches share."""
    return ScenarioConfig.named(request.config.getoption("--profile"), seed=42)
