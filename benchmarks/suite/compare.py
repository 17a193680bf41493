"""Compare two set records against the benchmark's bounds.

For every (workload, metric) pair present in both records the comparison
reports both medians with their quartiles, the relative change of the
median, and a verdict:

- ``within`` — the new median is no worse than the base by more than the
  metric's bound, nor better by more than it;
- ``better`` / ``worse`` — the median moved by more than the bound;
- ``unresolved`` — the run-to-run spread (quartile distance over median, on
  either side) is wider than the bound, so a move of the median says little.
  Such a pair still counts as ``better`` when every sample of the new record
  beats every sample of the base, and as ``worse`` when the reverse holds and
  the median worsened by more than the bound.

``fail_frac`` has a bound of zero: any rise is ``worse``. Bounds and
directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import math

__all__ = ["FAIL_FRAC", "compare_records", "format_rows", "metric_rules"]

#: ``fail_frac`` may not rise at all.
FAIL_FRAC = {"bound": 0.0, "better": "lower"}


def metric_rules(spec: dict) -> dict[str, dict]:
    """``{metric: {"bound", "better"}}`` for every compared metric."""
    rules = {
        entry["name"]: {"bound": entry["bound"], "better": entry["better"]}
        for entry in spec["end_to_end"]
    }
    rules["fail_frac"] = dict(FAIL_FRAC)
    return rules


def _spread(entry: dict) -> float:
    median = entry["median"]
    if not median:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(median)


def _verdict(base: dict, new: dict, bound: float, better: str) -> tuple[float, str]:
    """``(worsening, verdict)``; ``worsening`` is the relative change of the
    median, positive when the new record is worse."""
    if base["median"] is None or new["median"] is None:
        return math.nan, "worse"
    # Work in "badness": larger is worse whichever way the metric points.
    flip = 1.0 if better == "lower" else -1.0
    delta = flip * (new["median"] - base["median"])
    if base["median"] == 0:
        worsening = math.copysign(math.inf, delta) if delta else 0.0
    else:
        worsening = delta / abs(base["median"])
    if bound > 0 and max(_spread(base), _spread(new)) > bound:
        old = [flip * value for value in base["samples"]]
        cur = [flip * value for value in new["samples"]]
        if max(cur) < min(old):
            return worsening, "better"
        if min(cur) > max(old) and worsening > bound:
            return worsening, "worse"
        return worsening, "unresolved"
    if worsening > bound:
        return worsening, "worse"
    if worsening < -bound:
        return worsening, "better"
    return worsening, "within"


def compare_records(base: dict, new: dict, rules: dict[str, dict]) -> list[dict]:
    """One row per (workload, metric) pair present in both records."""
    rows = []
    for workload, base_wl in base["workloads"].items():
        new_wl = new["workloads"].get(workload)
        if new_wl is None:
            continue
        for metric, rule in rules.items():
            if metric not in base_wl["metrics"] or metric not in new_wl["metrics"]:
                continue
            old, cur = base_wl["metrics"][metric], new_wl["metrics"][metric]
            worsening, verdict = _verdict(old, cur, rule["bound"], rule["better"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": cur["unit"],
                    "base": old,
                    "new": cur,
                    "change": (
                        (cur["median"] - old["median"]) / abs(old["median"])
                        if old["median"] and cur["median"] is not None
                        else 0.0
                    ),
                    "bound": rule["bound"],
                    "worsening": worsening,
                    "verdict": verdict,
                }
            )
    return rows


def _fmt(entry: dict) -> str:
    if entry["median"] is None:
        return "-"
    return f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def format_rows(rows: list[dict]) -> str:
    """The comparison as a table, one row per (workload, metric)."""
    lines = [
        f"{'workload':<17} {'metric':<13} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<17} {row['metric']:<13} {_fmt(row['base']):>30} "
            f"{_fmt(row['new']):>30} {100 * row['change']:>+7.1f}% "
            f"{100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    return "\n".join(lines)
