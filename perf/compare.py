"""Compare two sets of benchmark runs: ``python3 perf/compare.py A [B]``.

``A`` and ``B`` are ``results.jsonl`` files (or the directories holding
them) written by ``perf/run.py --out``; typically A is the parent commit
and B the change, or twice the same commit to see whether the benchmark
agrees with itself.  Only untraced, full-size runs are read.

For every (workload, end-to-end metric) it prints each side's median and
quartiles and a verdict, by the rules of the ``choosing-metrics`` guide
(sections 6 and 8):

``improved``    B wins at least nine tenths of the pairs (run *i* of A with
                run *i* of B; ties count for neither) and the medians
                differ by more than the distance between A's quartiles
``regressed``   B's median is worse than A's by more than the metric's
                bound; a metric that must repeat exactly differs at all
``unresolved``  neither, but a side's quartiles are further apart than the
                bound, so "no worse than the bound" cannot be told
``unchanged``   none of the above

With only ``A`` it prints medians, quartiles and the spread (distance
between quartiles over the median) next to a third of the bound — the
steadiness the benchmark is held to.  Exit status is 1 if any verdict is
``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if Path(sys.path[0]).resolve() == ROOT / "perf":
    sys.path[0] = str(ROOT)

from perf import metrics  # noqa: E402

Runs = dict[tuple[str, str], list[float]]  # (workload, metric) -> values


def load(path: str) -> Runs:
    file = Path(path)
    if file.is_dir():
        file = file / "results.jsonl"
    runs: Runs = {}
    with open(file, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            values = {**record["end_to_end"], **record["scoped"]}
            for name, value in values.items():
                runs.setdefault((record["workload"], name), []).append(value)
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def spread(values: list[float]) -> float:
    low, high = quartiles(values)
    middle = statistics.median(values)
    return (high - low) / abs(middle) if middle else 0.0


def verdict(metric: metrics.Metric, a: list[float], b: list[float]) -> str:
    sign = 1.0 if metric.better == "higher" else -1.0  # gain = sign * (b - a)
    median_a, median_b = statistics.median(a), statistics.median(b)
    if metric.bound == metrics.EXACT:
        if a == b:  # run i of A and run i of B share a seed
            return "unchanged"
        return "improved" if sign * (median_b - median_a) > 0 else "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    low_a, high_a = quartiles(a)
    if wins >= 0.9 * len(pairs) and abs(median_b - median_a) > high_a - low_a:
        return "improved"
    worse_by = -sign * (median_b - median_a) / abs(median_a)
    if worse_by > metric.bound:
        return "regressed"
    if max(spread(a), spread(b)) > metric.bound and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        return "unresolved"
    return "unchanged"


def _describe(values: list[float]) -> str:
    low, high = quartiles(values)
    return f"{statistics.median(values):>12.6g} [{low:>11.6g} {high:>11.6g}]"


def report(a: Runs, b: Optional[Runs]) -> int:
    status = 0
    for workload in metrics.WORKLOADS:
        print(f"== {workload}")
        for metric in metrics.END_TO_END + metrics.SCOPED:
            key = (workload, metric.name)
            if key not in a or (b is not None and key not in b):
                continue
            bound = "exact" if metric.bound == metrics.EXACT else f"{metric.bound:.0%}"
            line = (
                f"  {metric.name:<28} {metric.unit:<6} bound {bound:<5} "
                f"A n={len(a[key]):<2} {_describe(a[key])}"
            )
            if b is None:
                line += f"  spread {spread(a[key]):>6.1%}"
                if metric.bound:
                    line += f"  (third of bound {metric.bound / 3:.1%})"
            else:
                outcome = verdict(metric, a[key], b[key])
                if outcome in ("regressed", "unresolved"):
                    status = 1
                line += f"  B n={len(b[key]):<2} {_describe(b[key])}  {outcome}"
            print(line)
    return status


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    return report(load(argv[0]), load(argv[1]) if len(argv) == 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
