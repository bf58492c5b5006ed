#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: the before/after table.

    python perf/compare.py A.json B.json

One row per (end-to-end metric, workload) with both medians, the bound from
``BENCHMARK.json`` and a verdict for B against A:

``better`` / ``worse``
    B's median differs from A's by more than the bound, in that direction.
``same``
    the medians are within the bound of each other.
``unresolved``
    the run-to-run spread of either side (distance between its quartiles,
    as a share of its median) is wider than the bound, so a difference of
    the size of the bound cannot be told from noise -- unless every run of
    B reads better than every run of A, which counts as ``better``.

Simulated metrics repeat exactly for a seed, so when both files were made
with the same seed and scale they are compared for equality: any difference
is ``better`` or ``worse``, whatever the bound.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Metrics that depend only on the seed, never on the host.
DETERMINISTIC = ("sim_ms_per_op", "pages_per_op", "index_bytes_per_row")


def load_runs(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def samples(results: dict[str, Any], workload: str, metric: str) -> list[float]:
    """Every value of ``metric`` that the file's runs of ``workload`` hold."""
    values = []
    for run in results["runs"]:
        if run["workload"] != workload:
            continue
        source = run.get("per_layer", {}) if run["trace"] else run["end_to_end"]
        if metric in source:
            values.append(float(source[metric]))
    return values


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def verdict(
    a: list[float], b: list[float], *, better: str, bound: float, exact: bool
) -> tuple[str, float]:
    """``(verdict, B's change as a share of A, positive when worse)``."""
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
    if exact:
        if a_mid == b_mid:
            return "same", 0.0
        return ("worse" if change > 0 else "better"), change
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            separated = max(b) < min(a)
        else:
            separated = min(b) > max(a)
        return ("better" if separated else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[dict[str, Any]]:
    same_inputs = a.get("seed") == b.get("seed") and {
        run["scale"] for run in a["runs"]
    } == {run["scale"] for run in b["runs"]}
    metrics = list(spec["end_to_end"]) + [
        metric
        for metric in spec["per_layer"]
        if metric["name"] in DETERMINISTIC
    ]
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in metrics:
            name = metric["name"]
            a_values = samples(a, workload, name)
            b_values = samples(b, workload, name)
            if not a_values or not b_values:
                continue
            exact = same_inputs and name in DETERMINISTIC
            bound = float(metric.get("bound", 0.0))
            outcome, change = verdict(
                a_values, b_values, better=metric["better"], bound=bound, exact=exact
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": statistics.median(a_values),
                    "b": statistics.median(b_values),
                    "runs": (len(a_values), len(b_values)),
                    "spread": (spread(a_values), spread(b_values)),
                    "change": change,
                    "bound": 0.0 if exact else bound,
                    "verdict": outcome,
                }
            )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    header = (
        f"{'workload':<22} {'metric':<20} {'unit':<7} {'A median':>14} "
        f"{'B median':>14} {'runs':>7} {'spread A/B':>13} {'worse by':>9} "
        f"{'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<22} {row['metric']:<20} {row['unit']:<7} "
            f"{row['a']:>14.6g} {row['b']:>14.6g} "
            f"{row['runs'][0]:>3}/{row['runs'][1]:<3} "
            f"{row['spread'][0]:>6.1%}/{row['spread'][1]:<6.1%} "
            f"{row['change']:>+9.1%} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare(load_runs(args[0]), load_runs(args[1]), spec)
    print(render(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    raise SystemExit(main())
