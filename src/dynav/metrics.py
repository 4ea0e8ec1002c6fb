"""Success rate, path-efficiency, and distance-to-goal aggregation."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .episodes import ABORTED, EpisodeResult
from .errors import EmptyInput, read_json

log = logging.getLogger(__name__)

REPORT_FORMAT = "dynav-report/1"


def _sum(values: Iterable[float]) -> float:
    """The values added from left to right, rounding after each addition.
    The built-in ``sum`` adds floats so before Python 3.12 and with
    compensation from 3.12 on, which can change the last bit of a mean."""
    total = 0.0
    for v in values:
        total += v
    return total


def spl_term(success: bool, shortest: float, traveled: float) -> float:
    """Per-goal efficiency: S * l / max(p, l); failures contribute zero."""
    if not success:
        return 0.0
    denom = max(traveled, shortest)
    if denom <= 0.0:
        return 1.0  # spawned inside the goal region: perfect by definition
    return shortest / denom


@dataclass(frozen=True)
class CategoryStats:
    n: int
    sr: float
    spl: float

    def to_dict(self) -> dict:
        return {"n": self.n, "sr": self.sr, "spl": self.spl}


@dataclass(frozen=True)
class Report:
    n_episodes: int
    n_subtasks: int
    sr: float                      # over sub-tasks
    spl: float
    acd_m: Optional[float]         # mean traveled distance over successes
    per_episode_sr: float          # episodes that ran to the end and succeeded at every sub-task
    per_category: Dict[str, CategoryStats] = field(default_factory=dict)
    excluded_unreachable: int = 0

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "n_episodes": self.n_episodes,
            "n_subtasks": self.n_subtasks,
            "sr": self.sr,
            "spl": self.spl,
            "acd_m": self.acd_m,
            "per_episode_sr": self.per_episode_sr,
            "per_category": {k: v.to_dict() for k, v in sorted(self.per_category.items())},
            "excluded_unreachable": self.excluded_unreachable,
        }

    def to_text(self) -> str:
        rows = [("category", "n", "SR %", "SPL")]
        for cat in sorted(self.per_category):
            s = self.per_category[cat]
            rows.append((cat, str(s.n), f"{100 * s.sr:.1f}", f"{s.spl:.3f}"))
        rows.append(("overall", str(self.n_subtasks), f"{100 * self.sr:.1f}",
                     f"{self.spl:.3f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
                 for row in rows]
        acd = "n/a" if self.acd_m is None else f"{self.acd_m:.2f} m"
        lines.append(f"episodes fully successful: {100 * self.per_episode_sr:.1f} %"
                     f" of {self.n_episodes};  mean success distance: {acd}")
        if self.excluded_unreachable:
            lines.append(f"excluded unreachable sub-tasks: {self.excluded_unreachable}")
        return "\n".join(lines)


def compute_metrics(results: Sequence[EpisodeResult]) -> Report:
    """Aggregate per-sub-task success, efficiency, and distance metrics.

    Sub-tasks whose shortest path was unreachable are excluded with a warning
    and counted in the report.  Raises EmptyInput when nothing remains.  An
    episode is fully successful when it did not abort, kept at least one
    sub-task, and succeeded at every sub-task it kept.
    """
    if not results:
        raise EmptyInput("no episode results to aggregate")
    subtasks = []
    excluded = 0
    episode_all_ok: List[bool] = []
    for ep in results:
        # an aborted episode never reached the goals after the last one it lists
        ok_all = ep.termination != ABORTED
        kept = 0
        for g in ep.goal_results:
            if g.unreachable or g.shortest is None:
                excluded += 1
                continue
            subtasks.append(g)
            kept += 1
            ok_all = ok_all and g.success
        episode_all_ok.append(ok_all and kept > 0)
    if excluded:
        log.warning("excluded %d unreachable sub-task(s) from metrics", excluded)
    if not subtasks:
        raise EmptyInput("every sub-task was unreachable")

    sr = sum(g.success for g in subtasks) / len(subtasks)
    spl = _sum(spl_term(g.success, g.shortest, g.path_length) for g in subtasks) / len(subtasks)
    successes = [g.path_length for g in subtasks if g.success]
    acd = _sum(successes) / len(successes) if successes else None

    per_cat: Dict[str, List] = {}
    for g in subtasks:
        per_cat.setdefault(g.category, []).append(g)
    cat_stats = {
        cat: CategoryStats(
            n=len(gs),
            sr=sum(g.success for g in gs) / len(gs),
            spl=_sum(spl_term(g.success, g.shortest, g.path_length) for g in gs) / len(gs),
        )
        for cat, gs in per_cat.items()
    }
    return Report(
        n_episodes=len(results),
        n_subtasks=len(subtasks),
        sr=sr,
        spl=spl,
        acd_m=acd,
        per_episode_sr=sum(episode_all_ok) / len(episode_all_ok),
        per_category=cat_stats,
        excluded_unreachable=excluded,
    )


def export_report(report: Report, out_dir: str) -> None:
    """Write report.json and a human-readable report.txt side by side."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")


def load_results(path: str) -> List[EpisodeResult]:
    """Read an episode-results JSON-lines file back into memory."""
    return [EpisodeResult.from_dict(d) for d in read_json(path, lines=True)]
