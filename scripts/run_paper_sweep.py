#!/usr/bin/env python3
"""Reproduce the headline experiment: a white-noise Bell measurement
followed by a computational measurement of wire 2, swept over the noise
parameter.

Writes the sweep CSV and prints the two average-entanglement curves
(single round vs both rounds) so the activation effect below the
lambda = 1/3 separability edge is visible at a glance.
"""

import argparse

from swapforge.config import MAX_SWEEP_STEPS, RoundSpec, ScenarioConfig, SweepSpec
from swapforge.experiment import run_sweep, sweep_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--out", default="paper_sweep.csv")
    args = parser.parse_args()
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:  # the range a config's sweep.steps takes
        parser.error(f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {args.steps}")

    config = ScenarioConfig(
        local_dim=2,
        rounds=(RoundSpec("noisy_bell"), RoundSpec("wire2_computational")),
        sweep=SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=args.steps),
    )
    run_sweep(config, csv_path=args.out)
    rows = sweep_rows(config)

    print(f"{'lambda':>8}  {'one round':>10}  {'two rounds':>10}")
    for row in rows:
        print(f"{row.param_value:8.3f}  {row.avg_neg_round1:10.6f}  {row.avg_neg_round2:10.6f}")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
