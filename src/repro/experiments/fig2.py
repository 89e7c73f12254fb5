"""Figure 2: effectiveness of the rank and ban policies.

(a) Average download speed of sharers vs freeriders under the **rank**
policy; (b) the same under the **ban** policy with δ = −0.5; (c) the
freerider speed under the ban policy for δ ∈ {−0.3, −0.5, −0.7}.

The paper's qualitative findings, which the reproduction tracks:

* freeriders are *faster* during the first day(s) — they spend no uplink
  on seeding, so all of it feeds their tit-for-tat;
* both policies eventually invert the order; at the end of the week
  freeriders reach ~75 % of sharer speed under rank and ~50 % under ban
  (δ = −0.5) — ban is clearly superior;
* the δ = −0.3 vs −0.5 gap is smaller than the −0.5 vs −0.7 gap.

All runs share one trace and one role split (same scenario seed), so
policy comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import bin_series
from repro.core.policies import BanPolicy, RankPolicy
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.obs import Observability

__all__ = [
    "Fig2Result",
    "run_fig2_policy",
    "fig2_tasks",
    "assemble_fig2",
    "speed_series_kbps",
]

DAY = 86400.0
KB = 1024.0


def speed_series_kbps(stats, peers: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Average download speed (KBps) of a peer group, per day.

    Each day's value is the running average up to that day — total bytes
    downloaded so far over total leech time so far — which is how the
    paper's smooth Figure 2 curves behave.
    """
    rows = [stats.index[p] for p in peers]
    if not rows:
        n_days = int(np.ceil(stats.duration / DAY))
        nan = np.full(n_days, np.nan)
        return np.arange(n_days) + 0.5, nan
    down = stats.downloaded[rows].sum(axis=0).cumsum()
    time = stats.leech_time[rows].sum(axis=0).cumsum()
    with np.errstate(invalid="ignore", divide="ignore"):
        speed = np.where(time > 0, down / np.maximum(time, 1e-12), np.nan)
    days, means = bin_series(stats.bucket_times(), speed, DAY, t_max=stats.duration)
    return days / DAY, means / KB


@dataclass
class Fig2Result:
    """Series for all three panels of Figure 2.

    ``rank`` and ``ban`` map group name ("sharers"/"freeriders") to a
    day-binned KBps series; ``delta_sweep`` maps each δ to the freerider
    series under ``BanPolicy(δ)``.
    """

    days: np.ndarray
    rank: Dict[str, np.ndarray]
    ban: Dict[str, np.ndarray]
    ban_delta: float
    delta_sweep: Dict[float, np.ndarray]

    def final_ratio(self, policy: str) -> float:
        """Final-day freerider/sharer speed ratio for ``"rank"`` or
        ``"ban"`` (the paper: ~0.75 for rank, ~0.5 for ban)."""
        series = self.rank if policy == "rank" else self.ban
        sharer = series["sharers"]
        freerider = series["freeriders"]
        valid = ~(np.isnan(sharer) | np.isnan(freerider))
        if not valid.any():
            return float("nan")
        idx = np.flatnonzero(valid)[-1]
        if sharer[idx] == 0:
            return float("nan")
        return float(freerider[idx] / sharer[idx])


def run_fig2_policy(
    scenario: ScenarioConfig,
    policy: str,
    delta: Optional[float] = None,
    obs: Optional[Observability] = None,
) -> Dict[str, np.ndarray]:
    """One Figure 2 condition: a single policy run on the shared population.

    ``policy`` is ``"rank"`` or ``"ban"`` (the latter takes ``delta``).
    Returns the day-binned speed series ``{"days", "sharers",
    "freeriders"}`` — the picklable unit payload of the parallel sweep.
    """
    if policy == "rank":
        policy_obj = RankPolicy()
    elif policy == "ban":
        if delta is None:
            raise ValueError("ban policy requires a delta")
        policy_obj = BanPolicy(delta)
    else:
        raise ValueError(f"unknown fig2 policy {policy!r}")
    sim = build_simulation(scenario, policy=policy_obj, obs=obs)
    stats = sim.run()
    days, sharer = speed_series_kbps(stats, sim.roles.sharers)
    _, freerider = speed_series_kbps(stats, sim.roles.freeriders)
    return {"days": days, "sharers": sharer, "freeriders": freerider}


def _sweep_deltas(
    deltas: Sequence[float], ban_delta: float
) -> Tuple[float, ...]:
    if ban_delta not in deltas:
        return tuple(deltas) + (ban_delta,)
    return tuple(deltas)


def fig2_tasks(
    scenario: ScenarioConfig,
    deltas: Sequence[float] = (-0.3, -0.5, -0.7),
    ban_delta: float = -0.5,
) -> List[Any]:
    """The independent sweep tasks of Figure 2, in canonical order.

    One task per policy run, :func:`run_fig2_policy` and its arguments:
    rank first, then one ban run per δ.  Feed
    the resulting payload list (any execution order, merged back into
    task order) to :func:`assemble_fig2`.
    """
    from repro.parallel import SweepTask

    tasks = [
        SweepTask("fig2/rank", run_fig2_policy, {"scenario": scenario, "policy": "rank"})
    ]
    for delta in _sweep_deltas(deltas, ban_delta):
        tasks.append(
            SweepTask(
                f"fig2/ban{delta:g}",
                run_fig2_policy,
                {"scenario": scenario, "policy": "ban", "delta": delta},
            )
        )
    return tasks


def assemble_fig2(
    payloads: Sequence[Dict[str, np.ndarray]],
    deltas: Sequence[float] = (-0.3, -0.5, -0.7),
    ban_delta: float = -0.5,
) -> Fig2Result:
    """Merge per-task payloads (in :func:`fig2_tasks` order) into the result."""
    sweep = _sweep_deltas(deltas, ban_delta)
    if len(payloads) != 1 + len(sweep):
        raise ValueError(
            f"expected {1 + len(sweep)} fig2 payloads, got {len(payloads)}"
        )
    rank = payloads[0]
    delta_sweep: Dict[float, np.ndarray] = {}
    ban: Dict[str, np.ndarray] = {}
    for delta, payload in zip(sweep, payloads[1:]):
        delta_sweep[delta] = payload["freeriders"]
        if delta == ban_delta:
            ban = {"sharers": payload["sharers"], "freeriders": payload["freeriders"]}
    return Fig2Result(
        days=rank["days"],
        rank={"sharers": rank["sharers"], "freeriders": rank["freeriders"]},
        ban=ban,
        ban_delta=ban_delta,
        delta_sweep=delta_sweep,
    )

