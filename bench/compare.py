"""Compare two sets of runs: ``python -m bench.compare A.json B.json``.

Each file holds the JSON lines ``bench/run.py --out`` appends, several
runs per workload.  One row is printed per (workload, end-to-end metric)
with both medians, the change as a share of A's median, the bound from
``BENCHMARK.json`` and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``improved``    at least ten pairs were run, B won at least nine tenths of
                them, and the medians differ by more than the distance
                between the quartiles of A's own runs
``unresolved``  the run-to-run spread of A or B exceeds the bound, and
                the two sets of runs overlap, so neither of the above
                can be told from noise
``within``      none of these: no worse than the bound allows

The exit code is 1 if any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any

from bench import load_spec, stats

#: Pairs of runs below which no gain is claimed.
MIN_PAIRS = 10


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in run order, of the untraced runs."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, B's median minus A's as a share of A's median, signed so
    that positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = sign * (median_b - median_a) / abs(median_a)
    noisy = max(stats.spread(a), stats.spread(b)) > bound
    # How far apart the two sets are: every run of one side beyond every run of the other.
    b_all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if noisy and not (b_all_worse or b_all_better):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1, _, q3 = stats.quartiles(a)
    if (
        min(len(a), len(b)) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and abs(median_b - median_a) > q3 - q1
    ):
        return "improved", worse
    return "within", worse


def compare(runs_a: dict, runs_b: dict, spec: dict[str, Any]) -> tuple[list[str], bool]:
    lines = [
        "%-14s %-17s %12s %12s %-22s %7s  %s"
        % ("workload", "metric", "A median", "B median", "change (of A's median)", "bound", "verdict")
    ]
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = runs_a.get(key), runs_b.get(key)
            if not a or not b:
                lines.append("%-14s %-17s missing from %s" % (*key, "A" if not a else "B"))
                continue
            word, worse = verdict(a, b, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            median_a = statistics.median(a)
            change = "%+.1f%% of %.4g %s" % (
                (statistics.median(b) - median_a) / abs(median_a) * 100,
                median_a,
                metric["unit"],
            )
            lines.append(
                "%-14s %-17s %12.4f %12.4f %-22s %6.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)"
                % (*key, median_a, statistics.median(b), change, metric["bound"] * 100, word,
                   len(a), len(b), stats.spread(a) * 100, stats.spread(b) * 100)
            )  # fmt: skip
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="runs of the parent commit (JSON lines)")
    parser.add_argument("b", help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    lines, regressed = compare(load_runs(args.a), load_runs(args.b), load_spec())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
