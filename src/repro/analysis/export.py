"""Export experiment series to plottable files.

The CLI renders figures as ASCII; for publication-quality plots users can
export the same series as TSV (gnuplot-style, the paper's own plotting
toolchain) and plot them with any tool.  Each figure result class
gets one ``export_*`` helper producing a dict of ``filename -> rows`` and
a writer that puts them on disk with a commented header.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.experiments.fig1 import Fig1Result
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig4 import Fig4Result
from repro.experiments.faults import FaultsResult

__all__ = [
    "export_fig1",
    "export_fig2",
    "export_fig3",
    "export_fig4",
    "export_faults",
    "write_series",
]

Rows = List[Sequence[float]]


def _table(header: Sequence[str], columns: Sequence[np.ndarray]) -> dict:
    rows = [list(row) for row in zip(*columns)]
    return {"header": list(header), "rows": rows}


def export_fig1(result: Fig1Result) -> Dict[str, dict]:
    """Series for both panels of Figure 1."""
    return {
        "fig1a_reputation_over_time": _table(
            ["day", "sharers", "freeriders"],
            [result.times_days, result.sharer_reputation, result.freerider_reputation],
        ),
        "fig1b_contribution_vs_reputation": _table(
            ["net_contribution_gb", "system_reputation"],
            [result.net_contribution_gb, result.system_reputation],
        ),
    }


def export_fig2(result: Fig2Result) -> Dict[str, dict]:
    """Series for the three panels of Figure 2."""
    out = {
        "fig2a_rank_policy": _table(
            ["day", "sharers_kbps", "freeriders_kbps"],
            [result.days, result.rank["sharers"], result.rank["freeriders"]],
        ),
        "fig2b_ban_policy": _table(
            ["day", "sharers_kbps", "freeriders_kbps"],
            [result.days, result.ban["sharers"], result.ban["freeriders"]],
        ),
    }
    deltas = sorted(result.delta_sweep)
    out["fig2c_delta_sweep"] = _table(
        ["day"] + [f"freeriders_kbps_delta_{d}" for d in deltas],
        [result.days] + [result.delta_sweep[d] for d in deltas],
    )
    return out


def export_fig3(result: Fig3Result) -> Dict[str, dict]:
    """Series for one Figure 3 panel."""
    key = "fig3a_ignore" if result.kind == "ignore" else "fig3b_lie"
    return {
        key: _table(
            ["percent_disobeying", "sharers_kbps", "freeriders_kbps"],
            [result.percentages, result.sharer_speed_kbps, result.freerider_speed_kbps],
        )
    }


def export_fig4(result: Fig4Result) -> Dict[str, dict]:
    """Series for both panels of Figure 4."""
    order = np.argsort(result.net_contribution)
    return {
        "fig4a_net_contribution": _table(
            ["rank", "upload_minus_download_bytes"],
            [np.arange(result.peers_seen, dtype=float), result.net_contribution[order]],
        ),
        "fig4b_reputation_cdf": _table(
            ["reputation", "cdf"],
            [result.reputation_values, result.reputation_cdf],
        ),
    }


def _faults_table(pts) -> dict:
    return _table(
        [
            "loss", "churn_per_day", "duplicate", "delay_max_s",
            "coverage", "false_ban_rate", "rank_inversion_rate",
            "convergence_time_s",
            "delivered", "dropped", "duplicated", "delayed",
            "crashes", "wipes", "audit_violations",
        ],
        [
            np.array([p.loss for p in pts], dtype=float),
            np.array([p.churn for p in pts], dtype=float),
            np.array([p.duplicate for p in pts], dtype=float),
            np.array([p.delay_max for p in pts], dtype=float),
            np.array([p.coverage for p in pts], dtype=float),
            np.array([p.false_ban_rate for p in pts], dtype=float),
            np.array([p.rank_inversion_rate for p in pts], dtype=float),
            np.array([p.convergence_time for p in pts], dtype=float),
            np.array([p.messages_delivered for p in pts], dtype=float),
            np.array([p.messages_dropped for p in pts], dtype=float),
            np.array([p.messages_duplicated for p in pts], dtype=float),
            np.array([p.messages_delayed for p in pts], dtype=float),
            np.array([p.crashes for p in pts], dtype=float),
            np.array([p.wipes for p in pts], dtype=float),
            np.array([p.audit_violations for p in pts], dtype=float),
        ],
    )


def export_faults(result: FaultsResult) -> Dict[str, dict]:
    """Series for the fault sweep (one row per fault level).

    One table per reputation mechanism in the sweep.  The default
    engine keeps the historical ``faults_sweep`` table name (existing
    tooling keeps working); rival mechanisms land in
    ``faults_sweep_<engine>``.  Numeric-only columns, so the writer's
    float formatting applies to every cell — the engine is in the table
    name, not a string column.
    """
    out: Dict[str, dict] = {}
    for engine in result.engines:
        name = "faults_sweep" if engine == "bartercast" else f"faults_sweep_{engine}"
        out[name] = _faults_table(result.points_for(engine))
    return out


def write_series(tables: Dict[str, dict], directory: Union[str, Path]) -> List[Path]:
    """Write exported tables to ``directory`` as ``<name>.tsv`` files, each
    with a ``#``-commented header line (gnuplot-friendly).

    Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, table in tables.items():
        path = directory / f"{name}.tsv"
        with path.open("w") as fh:
            fh.write("# " + "\t".join(table["header"]) + "\n")
            for row in table["rows"]:
                fh.write("\t".join(_fmt(v) for v in row) + "\n")
        written.append(path)
    return written


def _fmt(value: float) -> str:
    if isinstance(value, float) and value != value:  # NaN
        return "nan"
    return repr(float(value))
