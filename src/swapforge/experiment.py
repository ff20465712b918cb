"""Scenario execution behind the CLI: single runs with per-branch
reports, and parameter sweeps emitting deterministic CSV.

CSV contract: fixed column order (param_value, avg_neg_round1,
avg_neg_round2, paper_formula_round1, paper_formula_round2,
max_branch_negativity), header row, '.' decimal separator, every value
printed with 15 significant digits, newline-terminated rows.  Rows are
written in grid order and computed by one deterministic stacked pass, so
output is byte-stable across runs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from math import prod

import numpy as np

from .classify import _sig15, classify_element, verdict_label
from .config import ScenarioConfig
from .engine import (
    ALL_BRANCHES,
    STACK_ENTRIES,
    SwapScenario,
    _closed_average,
    stacked_branches,
    stacked_chain_negativities,
)
from .errors import ConfigError
from .tolerances import PROB_TOL

__all__ = [
    "SweepRow",
    "paper_formulas",
    "run_scenario",
    "run_sweep",
    "sweep_rows",
    "worker_count",
]

CSV_COLUMNS = (
    "param_value",
    "avg_neg_round1",
    "avg_neg_round2",
    "paper_formula_round1",
    "paper_formula_round2",
    "max_branch_negativity",
)


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


@dataclass(frozen=True)
class SweepRow:
    param_value: float
    avg_neg_round1: float
    avg_neg_round2: float
    paper_formula_round1: float
    paper_formula_round2: float
    max_branch_negativity: float

    def as_csv(self) -> str:
        return ",".join(
            _fmt(v)
            for v in (
                self.param_value,
                self.avg_neg_round1,
                self.avg_neg_round2,
                self.paper_formula_round1,
                self.paper_formula_round2,
                self.max_branch_negativity,
            )
        )


def worker_count(grid_size: int) -> int:
    """Parallelism cap from SWAPFORGE_THREADS (0 or unset = auto).

    Sweeps run as one stacked pass on a single thread whatever it says;
    they still read the variable, so a malformed value stays an input
    error.
    """
    raw = os.environ.get("SWAPFORGE_THREADS", "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError(f"SWAPFORGE_THREADS must be an integer, got {raw!r}")
    if requested < 0:
        raise ConfigError("SWAPFORGE_THREADS must be nonnegative")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, grid_size))


def paper_formulas(lam: float) -> tuple[float, float]:
    """The paper's closed-form averages for a white-noise Bell measurement.

    One round gives (3*lam - 1)/2, which goes negative below the
    separability edge lam = 1/3 where the measured average clamps at
    zero; one round followed by a wire-2 computational measurement gives
    (lam - 1 + sqrt(1 - 2*lam + 5*lam^2))/2.
    """
    round1 = (3.0 * lam - 1.0) / 2.0
    round2 = (lam - 1.0 + math.sqrt(1.0 - 2.0 * lam + 5.0 * lam * lam)) / 2.0
    return round1, round2


def _reference_curves(config: ScenarioConfig, lam: float) -> tuple[float, float]:
    """The paper formulas that apply to the swept scenario.

    Both are emitted unclamped, so a discrepancy with the measured
    average stays visible in the data.  Rows for scenarios without a
    known formula carry nan.
    """
    round1 = math.nan
    round2 = math.nan
    if config.sweep is not None and config.sweep.param_name == "lambda":
        if config.swept_round_index() == 0 and config.rounds[0].family == "noisy_bell":
            round1, two_rounds = paper_formulas(lam)
            if len(config.rounds) >= 2 and config.rounds[1].family == "wire2_computational":
                round2 = two_rounds
    return round1, round2


def _element_stack(povm) -> np.ndarray:
    return np.stack([el.matrix for el in povm.elements])


def sweep_rows(config: ScenarioConfig) -> list[SweepRow]:
    """Evaluate every grid point; grid order is preserved in the output.

    Rounds that do not own the swept parameter are built once; the swept
    round is built, and so validated, at every point.  The grid goes
    through the stacked engine in chunks sized so that no stacked array
    holds more than STACK_ENTRIES entries.
    """
    if config.sweep is None:
        raise ConfigError("config has no sweep block")
    swept = config.swept_round_index()
    prob_tol = config.tolerance_overrides.get("prob_tol", PROB_TOL)
    grid = np.linspace(config.sweep.start, config.sweep.stop, config.sweep.steps)
    worker_count(len(grid))  # rejects a malformed SWAPFORGE_THREADS
    swept_povms = (config.build_round(swept, float(lam)) for lam in grid)
    first = next(swept_povms, None)
    if first is None:  # an empty grid from a config built in code
        return []
    swept_povms = itertools.chain([first], swept_povms)
    stacks = [
        _element_stack(first if i == swept else config.build_round(i))[None]
        for i in range(len(config.rounds))
    ]
    branches = prod(s.shape[1] for s in stacks)
    chunk = max(1, STACK_ENTRIES // (branches * config.local_dim**4))
    parts = []
    for _ in range(0, len(grid), chunk):
        stacks[swept] = np.stack([_element_stack(p) for p in itertools.islice(swept_povms, chunk)])
        parts.append(stacked_chain_negativities(config.local_dim, stacks, prob_tol))
    avg1, avg_last, top = (np.concatenate(column) for column in zip(*parts))
    if len(config.rounds) == 1:
        avg_last = np.full(len(grid), math.nan)
    rows = []
    for k, lam in enumerate(grid.tolist()):
        f1, f2 = _reference_curves(config, lam)
        rows.append(
            SweepRow(
                param_value=lam,
                avg_neg_round1=float(avg1[k]),
                avg_neg_round2=float(avg_last[k]),
                paper_formula_round1=f1,
                paper_formula_round2=f2,
                max_branch_negativity=float(top[k]),
            )
        )
    return rows


def run_sweep(config: ScenarioConfig, csv_path: str | None = None) -> list[SweepRow]:
    """Run the sweep and write the CSV (to the configured path unless
    overridden); returns the rows."""
    rows = sweep_rows(config)
    target = csv_path if csv_path is not None else config.resolve_output(config.outputs.csv_path)
    text = ",".join(CSV_COLUMNS) + "\n" + "".join(row.as_csv() + "\n" for row in rows)
    if target is not None:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return rows


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute the measurement chain once and build the per-branch report.

    Every branch is expanded in one stacked pass (``stacked_branches``;
    ``chain`` stays the reference).  Report numbers carry 15 significant
    digits and the report file is byte-identical from run to run.
    """
    prob_tol = config.tolerance_overrides.get("prob_tol", PROB_TOL)
    rounds = config.build_rounds()
    scenario = SwapScenario(config.local_dim, rounds, ALL_BRANCHES)
    found = stacked_branches(
        scenario.local_dim, [_element_stack(povm) for povm in scenario.rounds], prob_tol
    )
    element_classes = [
        [classify_element(el) for el in povm.elements] for povm in rounds
    ]
    probabilities = found.probability.tolist()
    negativities = found.negativity14.tolist()
    branches = []
    for path, p, neg, c14, c12 in zip(
        found.outcome_paths.tolist(),
        probabilities,
        negativities,
        found.c14vs23.tolist(),
        found.c12vs34.tolist(),
    ):
        per_round = [element_classes[r][outcome] for r, outcome in enumerate(path)]
        branches.append(
            {
                "outcome_path": path,
                "probability": _sig15(p),
                "negativity14": _sig15(neg),
                "c14vs23": _sig15(c14),
                "c12vs34": _sig15(c12),
                "classification": [
                    {"verdict": verdict_label(ec.verdict, ec.local_dim), "operation_kind": ec.operation_kind}
                    for ec in per_round
                ],
            }
        )
    report = {
        "local_dim": config.local_dim,
        "rounds": [
            {"family": spec.family, "params": spec.params} for spec in config.rounds
        ],
        "branches": branches,
        "average_negativity": _sig15(_closed_average(probabilities, negativities)),
    }
    target = config.resolve_output(config.outputs.report_path)
    if target is not None:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return report
