#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python bench/compare.py OLD_DIR NEW_DIR

Each directory holds the ``results.jsonl`` that ``bench/run.py --out DIR``
appends one line to per run; only untraced runs are compared.  Runs of
one workload pair up by seed.  For each workload and each end-to-end
metric of ``BENCHMARK.json``, and for ``error_rate`` (failed ÷ attempted
operations), it prints each side's median and quartiles, the share of
pairs the new side wins (ties count for neither) and a verdict:

gain
    the new side wins at least nine pairs in ten, and the medians differ
    by more than the old side's quartile spread;
regression
    the new median is worse than the old one by more than the metric's
    bound (a share of the old median);
unresolved
    either side's quartile spread, as a share of its median, is wider
    than the bound, and not every new run beats every old run;
no regression
    otherwise.

``requests`` and ``sim_h`` are deterministic per seed, so they are
compared exactly, pair by pair: any worse pair is a regression.
``error_rate`` is compared as a share: any increase is a regression.
Exits 1 if any verdict is a regression or a new run failed its checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Metrics that repeat exactly for a seed; compared pair by pair.
EXACT = ("requests", "sim_h")

Runs = Dict[str, List[Dict[str, Any]]]


def load_runs(directory: Path) -> Runs:
    """workload -> its untraced run records, in the order they ran."""
    runs: Runs = defaultdict(list)
    with open(directory / "results.jsonl") as results:
        for line in results:
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(old: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[Tuple[Any, Any]]:
    """Pairs of (old, new) runs with the same seed, in run order."""
    unpaired: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for record in old:
        unpaired[record["seed"]].append(record)
    return [
        (unpaired[record["seed"]].pop(0), record)
        for record in new
        if unpaired[record["seed"]]
    ]


def metric_value(record: Dict[str, Any], metric: str) -> float:
    if metric == "error_rate":
        return record["failed"] / record["attempted"]
    return record["metrics"][metric]["value"]


def verdict(
    metric: str,
    bound: float,
    old: List[float],
    new: List[float],
    pairs: List[Tuple[float, float]],
) -> str:
    """The verdict for one lower-is-better metric (see the module doc)."""
    if metric in EXACT:
        pairs = pairs or [(statistics.median(old), statistics.median(new))]
        if any(after > before for before, after in pairs):
            return "regression"
        return "gain" if any(after < before for before, after in pairs) else "no regression"
    if metric == "error_rate":
        before, after = statistics.mean(old), statistics.mean(new)
        if after > before:
            return "regression"
        return "gain" if after < before else "no regression"
    old_q1, old_median, old_q3 = quartiles(old)
    new_q1, new_median, new_q3 = quartiles(new)
    wins = sum(1 for before, after in pairs if after < before)
    if pairs and wins >= 0.9 * len(pairs) and old_median - new_median > old_q3 - old_q1:
        return "gain"
    if new_median > old_median * (1 + bound):
        return "regression"
    spread = max((old_q3 - old_q1) / old_median, (new_q3 - new_q1) / new_median)
    if spread > bound and not max(new) < min(old):
        return "unresolved"
    return "no regression"


def compare(old_runs: Runs, new_runs: Runs, bounds: Dict[str, float]) -> List[List[str]]:
    rows = []
    for workload in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[workload], new_runs[workload]
        pairs = pair_up(old, new)
        for metric, bound in bounds.items():
            old_values = [metric_value(record, metric) for record in old]
            new_values = [metric_value(record, metric) for record in new]
            paired = [(metric_value(a, metric), metric_value(b, metric)) for a, b in pairs]
            wins = sum(1 for before, after in paired if after < before)
            cells = []
            for values in (old_values, new_values):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            rows.append([
                workload, metric, *cells,
                f"{wins}/{len(pairs)}",
                verdict(metric, bound, old_values, new_values, paired),
            ])
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_runs, new_runs = (load_runs(Path(arg)) for arg in argv)
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads(BENCHMARK.read_text())["end_to_end"]
    }
    bounds["error_rate"] = 0.0
    rows = compare(old_runs, new_runs, bounds)
    header = ["workload", "metric", "old median [q1, q3]", "new median [q1, q3]",
              "new wins", "verdict"]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    incorrect = [
        f"{record['workload']} seed {record['seed']}"
        for records in new_runs.values()
        for record in records
        if not record["correct"]
    ]
    for run in incorrect:
        print(f"new run failed its checks: {run}")
    regressed = any(row[-1] == "regression" for row in rows)
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
