#!/usr/bin/env python3
"""Print sha256 digests of swapforge's byte-stable outputs, one per line.

Covers the paper sweep CSV at 201, 1001 and 2001 points, the CSVs of
sweeps whose swept round is alone (its round-1 formula column holds
(3*lambda-1)/2, its round-2 one nan), second, or before or after a
seeded POVM file round (formula columns nan but for the round-1 one of
the swept round first), the JSON reports of family runs whose rounds
have degenerate spectra (so that eigenvectors are not unique) and of the
paper chain at lambda = 0.8, the JSON reports of seeded d = 2, 3 and 4
scenario runs over random POVM files, the `swapforge classify` output on
each of those files, the `swapforge verify` table, and its `--json` rows
with each row's wall time (`seconds`) removed, so that every check's
`max_deviation` and `tolerance` are byte-gated. Each run report gets a
second digest with its two I-concurrence fields (c14vs23, c12vs34)
removed, so a change of concurrence route leaves the rest of the report
byte-gated. Every input is drawn from a fixed seed, so two checkouts
that write the same bytes print the same lines and a change in output is
one `diff` away:

    PYTHONPATH=/path/to/before/src python scripts/output_digests.py > before.txt
    PYTHONPATH=src python scripts/output_digests.py > after.txt
    diff before.txt after.txt

The package is imported from PYTHONPATH, so the script itself may come
from either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from swapforge import cli
from swapforge.config import (
    OutputsSpec,
    RoundSpec,
    ScenarioConfig,
    SweepSpec,
    load_scenario_config,
)
from swapforge.experiment import run_scenario, run_sweep
from swapforge.sampling import random_povm
from swapforge.states import write_povm

SWEEP_POINTS = (201, 1001, 2001)
DIMS = (2, 3, 4)
MAX_BRANCHES = 64
PER_DIM = 8  # scenarios per local dimension


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


CONCURRENCE_FIELDS = ("c14vs23", "c12vs34")


def _report_digests(label: str, path: str):
    """The digest of a run report's bytes, then of the report with its
    I-concurrence fields removed, re-serialized as json.dumps(indent=2)."""
    yield label, _file_sha(path)
    with open(path, "rb") as fh:
        report = json.load(fh)
    for branch in report["branches"]:
        for key in CONCURRENCE_FIELDS:
            del branch[key]
    yield f"{label} without concurrences", _sha(json.dumps(report, indent=2).encode())


def sweep_digests(workdir: str):
    for steps in SWEEP_POINTS:
        config = ScenarioConfig(
            local_dim=2,
            rounds=(RoundSpec("noisy_bell"), RoundSpec("wire2_computational")),
            sweep=SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=steps),
        )
        path = os.path.join(workdir, f"paper_{steps}.csv")
        run_sweep(config, csv_path=path)
        yield f"sweep paper steps={steps}", _file_sha(path)


def swept_round_digests(workdir: str, seed: int):
    """201-point noisy_bell lambda sweeps other than the paper's: the swept
    round alone, after wire2_computational, after a seeded file round, and
    before that same file round.  The last two cover both orders of the
    stacked engine's field rule: a complex round before the real swept
    round, and the real swept round promoted by the complex one after it."""
    rng = np.random.default_rng(seed)
    write_povm(random_povm(rng, d=2, n_elements=3), os.path.join(workdir, "swept_file.json"))
    swept = RoundSpec("noisy_bell")
    scenarios = [
        ("noisy_bell", (swept,)),
        ("wire2_computational,noisy_bell", (RoundSpec("wire2_computational"), swept)),
        ("file,noisy_bell", (RoundSpec("file", {"path": "swept_file.json"}), swept)),
        ("noisy_bell,file", (swept, RoundSpec("file", {"path": "swept_file.json"}))),
    ]
    for i, (label, rounds) in enumerate(scenarios):
        sweep = SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=201)
        config = ScenarioConfig(local_dim=2, rounds=rounds, sweep=sweep, base_dir=workdir)
        path = os.path.join(workdir, f"swept_{i}.csv")
        run_sweep(config, csv_path=path)
        yield f"sweep {label} steps=201", _file_sha(path)


def _factor(theta: float, tau1: float, tau2: float) -> dict:
    return {"theta": theta, "phi": 0.0, "tau1": tau1, "tau2": tau2}


# |0><0| x I (a doubly degenerate spectrum), then |1><1| x B for two
# factors B diagonal in the |+>, |-> basis that sum to I.
SEPARABLE_ELEMENTS = [
    {"a": _factor(0.0, 1.0, 0.0), "b": _factor(0.0, 1.0, 1.0)},
    {"a": _factor(np.pi, 1.0, 0.0), "b": _factor(np.pi / 2, 0.7, 0.3)},
    {"a": _factor(np.pi, 1.0, 0.0), "b": _factor(np.pi / 2, 0.3, 0.7)},
]


def family_run_digests(workdir: str):
    """Run reports over built-in families at points where every round's
    spectrum is degenerate: noisy Bell at lambda = 0, 1/3 and 1, each
    followed by wire2_computational, one bell_projective round, and one
    separable_product round; then noisy Bell at lambda = 0.8 followed by
    wire2_computational, whose average a sum over the kept branches alone
    rounds away from the sweep's cell."""
    wire2 = RoundSpec("wire2_computational")
    scenarios = [
        (f"noisy_bell lambda={label}", (RoundSpec("noisy_bell", {"lambda": lam}), wire2))
        for label, lam in (("0", 0.0), ("1/3", 1.0 / 3.0), ("1", 1.0))
    ]
    scenarios.append(("bell_projective", (RoundSpec("bell_projective"),)))
    scenarios.append(
        ("separable_product", (RoundSpec("separable_product", {"elements": SEPARABLE_ELEMENTS}),))
    )
    # a run averages as the sweep does: this report's average is the sweep's cell
    scenarios.append(("noisy_bell lambda=0.8", (RoundSpec("noisy_bell", {"lambda": 0.8}), wire2)))
    for i, (label, rounds) in enumerate(scenarios):
        path = os.path.join(workdir, f"family_{i}.report")
        outputs = OutputsSpec(report_path=path)
        run_scenario(ScenarioConfig(local_dim=2, rounds=rounds, outputs=outputs))
        yield from _report_digests(f"run {label}", path)


def _cli_stdout(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def run_and_classify_digests(workdir: str, seed: int):
    """Seeded scenarios of 1-3 rounds over random POVM files: the digest
    of each run report, then of `classify` on each of its POVM files."""
    rng = np.random.default_rng(seed)
    for d in DIMS:
        for i in range(PER_DIM):
            n_rounds = int(rng.integers(1, 4))
            while True:
                sizes = [int(k) for k in rng.integers(2, d * d + 1, size=n_rounds)]
                if np.prod(sizes) <= MAX_BRANCHES:
                    break
            name = f"d{d}_{i:02d}"
            rounds = []
            for r, k in enumerate(sizes):
                povm_path = os.path.join(workdir, f"{name}_{r}.json")
                write_povm(random_povm(rng, d=d, n_elements=k), povm_path)
                rounds.append({"family": "file", "params": {"path": f"{name}_{r}.json"}})
            doc = {"local_dim": d, "rounds": rounds, "outputs": {"report_path": f"{name}.report"}}
            config_path = os.path.join(workdir, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            run_scenario(load_scenario_config(config_path))
            yield from _report_digests(
                f"run {name} rounds={sizes}", os.path.join(workdir, f"{name}.report")
            )
            for r in range(n_rounds):
                code, out = _cli_stdout(["classify", os.path.join(workdir, f"{name}_{r}.json")])
                yield f"classify {name}_{r} exit={code}", _sha(out)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=2024, help="seed of the scenario inputs")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for label, digest in sweep_digests(workdir):
            print(f"{digest}  {label}")
        for label, digest in swept_round_digests(workdir, args.seed):
            print(f"{digest}  {label}")
        for label, digest in family_run_digests(workdir):
            print(f"{digest}  {label}")
        for label, digest in run_and_classify_digests(workdir, args.seed):
            print(f"{digest}  {label}")
    code, out = _cli_stdout(["verify"])
    print(f"{_sha(out)}  verify exit={code}")
    code, out = _cli_stdout(["verify", "--json"])
    rows = [json.loads(line) for line in out.decode().splitlines()]
    for row in rows:
        del row["seconds"]
    print(f"{_sha(json.dumps(rows).encode())}  verify --json without seconds exit={code}")


if __name__ == "__main__":
    main()
