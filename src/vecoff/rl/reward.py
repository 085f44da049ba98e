"""Per-decision reward for learning schedulers.

Each feasible task in a window has a deadline gap: its deadline minus the
window's earliest server availability. Picking the tightest gap earns the
full drop-avoidance term, picking the loosest earns none; processing time
is scored the same way. Both terms normalize by the window's totals, so

    r_drop    = (100 / G) * (G - chosen gap),   G = sum of gaps
    r_latency = (100 / P) * (P - chosen proc),  P = sum of proc times

and the decision reward is their sum, at most 200 per decision. A
one-member window scores exactly 0 (the formulas force it: the chosen
value is the total), and degenerate totals G <= 0 or P <= 0 score 0 by
definition. Both terms are invariant to scaling all gaps (or all
processing times) by a positive constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import DecisionWindow


@dataclass
class RewardBreakdown:
    """A decision reward with its ingredients kept for audit."""

    gaps: list[float]
    gap_total: float
    proc_total: float
    r_drop: float
    r_latency: float
    r_total: float


def decision_reward(window: DecisionWindow, chosen: int) -> RewardBreakdown:
    """Score choosing ``window.feasible[chosen]``.

    Gaps are measured against the window's earliest availability.
    """
    feas = window.feasible
    if not feas:
        raise ValueError("cannot score an empty window")
    if not (0 <= chosen < len(feas)):
        raise ValueError(f"chosen index {chosen} outside window of {len(feas)}")
    gaps = [t.deadline - window.earliest_avail for t in feas]
    gap_total = sum(gaps)
    proc_total = sum(t.proc_time for t in feas)
    if gap_total <= 0.0 or proc_total <= 0.0:
        r_drop = 0.0
        r_latency = 0.0
    else:
        r_drop = (100.0 / gap_total) * (gap_total - gaps[chosen])
        r_latency = (100.0 / proc_total) * (proc_total - feas[chosen].proc_time)
    return RewardBreakdown(
        gaps=gaps,
        gap_total=gap_total,
        proc_total=proc_total,
        r_drop=r_drop,
        r_latency=r_latency,
        r_total=r_drop + r_latency,
    )
