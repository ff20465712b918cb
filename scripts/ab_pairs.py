"""Alternating A/B pairs of the benchmark on two checkouts.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S

Runs ``perfbench/run.py`` once per side and pair, in each checkout as a
subprocess with seed = pair number (1..N), and alternates which side
runs first.  For each end-to-end metric it prints the parent's median
and interquartile range, the change's median, the relative change of
the medians, in how many pairs the change was better (ties count for
neither side) and a verdict by the claim rule: a gain needs at least 10
pairs, wins in at least nine tenths of them, and a median better than the
parent's by more than the parent's IQR.  Fewer than 10 pairs draw a
warning, and a verdict of "no claim".  A second verdict applies the
regression rule with the metric's relative bound: "worse" if the
change's median is worse than the parent's by more than the bound,
"unresolved" if the parent's IQR is wider than the bound (unless every
change run beats every parent run), else "ok".  Metric directions and
bounds come from BENCHMARK.json next to this script, which it only
reads.  Exits 1 if any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # the fewest pairs a gain may be claimed from


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The metric values of one benchmark run, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"run failed in {checkout} (seed {seed}, exit {proc.returncode}):\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs: int, wins: int, gap: float, iqr: float) -> str:
    """The claim rule on one metric: ``gap`` is how much better the
    change's median is than the parent's (negative if worse), ``iqr`` the
    parent's interquartile range."""
    if pairs < MIN_PAIRS:
        return "no claim"
    if 10 * wins < 9 * pairs:
        return "no gain (wins)"
    if not gap > iqr:
        return "no gain (IQR)"
    return "gain"


def regression(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The regression rule on one metric: ``sign`` is +1 if higher is
    better and -1 if lower is, ``bound`` the relative bound."""
    q1, med, q3 = quartiles(parent)
    if sign * (statistics.median(change) - med) < -bound * abs(med):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(med) and not beats_all:
        return "unresolved"
    return "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.pairs < MIN_PAIRS:
        print(f"warning: --pairs {args.pairs} is below {MIN_PAIRS}; no gain can be claimed",
              file=sys.stderr)
    for checkout in (args.parent, args.change):
        if not (Path(checkout) / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    failed = False
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            metrics = run_once(getattr(args, side), args.workload, pair, args.seconds)
            failed |= metrics is None
            runs[side].append(metrics)
        print(f"pair {pair}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    if failed:
        return 1

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':14s} {'parent med':>11s} {'parent IQR':>11s} {'change med':>11s}"
          f" {'rel':>8s} {'wins':>6s}  {'claim':15s} regression")
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, med, q3 = quartiles(parent)
        changed = statistics.median(change)
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        print(f"{name:14s} {med:11.5g} {q3 - q1:11.3g} {changed:11.5g}"
              f" {(changed - med) / med:+8.2%} {wins:3d}/{args.pairs}"
              f"  {verdict(args.pairs, wins, sign * (changed - med), q3 - q1):15s}"
              f" {regression(parent, change, sign, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
