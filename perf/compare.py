"""Compare two benchmark result files, one row per workload x metric.

    python3 perf/compare.py bench_parent.json bench_change.json

Each file holds the JSON lines ``run.py --append FILE`` wrote: one line per
run.  A side's value is the median of its runs' reported values; its spread
is the distance between the quartiles of those values over their median
(with fewer than four runs, the quartiles of the last run's unscaled
repeats over their median).

Verdicts, per row, against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` — either side's spread is wider than the bound, so the
  rows cannot tell a regression from noise (unless every run of B reads
  better than every run of A);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread;
* ``within-bound`` — anything else.

Every ratio is B over A.  Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def side(runs: list, workload: str, metric: str):
    """``(median, spread share, values)`` of one metric on one side."""
    rows = [
        run["workloads"][workload]["end_to_end"][metric]
        for run in runs
        if workload in run["workloads"]
        and "end_to_end" in run["workloads"][workload]
    ]
    if not rows:
        return None
    values = [row["value"] for row in rows]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
    else:
        last = rows[-1]
        spread = (last["q3"] - last["q1"]) / last["median"]
    return median, spread, values


def verdict(better: str, bound: float, a, b) -> str:
    a_median, a_spread, a_values = a
    b_median, b_spread, b_values = b
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_median - a_median) / a_median
    if better == "lower":
        b_wins_all = max(b_values) < min(a_values)
    else:
        b_wins_all = min(b_values) > max(a_values)
    if max(a_spread, b_spread) > bound:
        return "better" if b_wins_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > a_spread and worse_by < 0:
        return "better"
    return "within-bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    runs_a, runs_b = load(argv[0]), load(argv[1])
    print(f"A = {argv[0]} ({len(runs_a)} runs, commit "
          f"{runs_a[-1]['stamp']['commit'][:12]})")
    print(f"B = {argv[1]} ({len(runs_b)} runs, commit "
          f"{runs_b[-1]['stamp']['commit'][:12]})")
    print(
        f"{'workload':<17}{'metric':<15}{'unit':<6}{'A':>11}{'B':>11}"
        f"{'B/A':>8}{'A spread':>10}{'B spread':>10}{'bound':>7}  verdict"
    )
    any_worse = False
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = side(runs_a, workload, metric["name"])
            b = side(runs_b, workload, metric["name"])
            if a is None or b is None:
                continue
            word = verdict(metric["better"], metric["bound"], a, b)
            any_worse = any_worse or word == "worse"
            print(
                f"{workload:<17}{metric['name']:<15}{metric['unit']:<6}"
                f"{a[0]:>11.4f}{b[0]:>11.4f}{b[0] / a[0]:>8.3f}"
                f"{a[1]:>10.1%}{b[1]:>10.1%}{metric['bound']:>7.0%}  {word}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
