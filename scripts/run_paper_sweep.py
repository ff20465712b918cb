#!/usr/bin/env python3
"""Reproduce the headline experiment: a white-noise Bell measurement
followed by a computational measurement of wire 2, swept over the noise
parameter.

Writes the sweep CSV, then reads it back and prints the two
average-entanglement curves (single round vs both rounds) so the
activation effect below the lambda = 1/3 separability edge is visible at
a glance.  The sweep runs once, and no row is held in memory.
"""

import argparse
import csv

from swapforge.config import MAX_SWEEP_STEPS, RoundSpec, ScenarioConfig, SweepSpec
from swapforge.experiment import run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument(
        "--out", default="paper_sweep.csv",
        help="the CSV path; a regular file, since the table is read back from it",
    )
    args = parser.parse_args()
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:  # the range a config's sweep.steps takes
        parser.error(f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")

    config = ScenarioConfig(
        local_dim=2,
        rounds=(RoundSpec("noisy_bell"), RoundSpec("wire2_computational")),
        sweep=SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=args.steps),
    )
    run_sweep(config, csv_path=args.out)

    print(f"{'lambda':>8}  {'one round':>10}  {'two rounds':>10}")
    with open(args.out, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        for lam, one, two, *_ in rows:
            print(f"{float(lam):8.3f}  {float(one):10.6f}  {float(two):10.6f}")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
