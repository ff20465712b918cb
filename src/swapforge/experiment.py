"""Scenario execution behind the CLI: single runs with per-branch
reports, and parameter sweeps emitting deterministic CSV.

CSV contract: fixed column order (param_value, avg_neg_round1,
avg_neg_round2, paper_formula_round1, paper_formula_round2,
max_branch_negativity), header row, '.' decimal separator, every value
printed with 15 significant digits ("%.15g"), newline-terminated rows.
Rows are computed in grid order by one deterministic stacked pass and
written from its columns, so output is byte-stable across runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .classify import _classify, _sig15, verdict_label
from .config import ScenarioConfig
from .engine import (
    STACK_ENTRIES,
    SwapScenario,
    _chain_negativities,
    _closed_average,
    _round_spectrum,
    stacked_branches,
)
from .errors import ConfigError, IncompleteBranchSet
from .families import family_sweep_stack
from .states import check_povm_stack

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


@dataclass(frozen=True)
class SweepRow:
    param_value: float
    avg_neg_round1: float
    avg_neg_round2: float
    paper_formula_round1: float
    paper_formula_round2: float
    max_branch_negativity: float


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


def paper_formulas(lam):
    """The paper's closed-form averages for a white-noise Bell measurement,
    at one lambda or elementwise over an array of them.

    One round gives (3*lam - 1)/2, which goes negative below the
    separability edge lam = 1/3 where the measured average clamps at
    zero; one round followed by a wire-2 computational measurement gives
    (lam - 1 + sqrt(1 - 2*lam + 5*lam^2))/2.
    """
    round1 = (3.0 * lam - 1.0) / 2.0
    round2 = (lam - 1.0 + np.sqrt(1.0 - 2.0 * lam + 5.0 * lam * lam)) / 2.0
    return round1, round2


def _paper_formulas_apply(config: ScenarioConfig) -> tuple[bool, bool]:
    """Which paper formulas apply to the swept scenario (round 1, round 2).

    Both are emitted unclamped, so a discrepancy with the measured
    average stays visible in the data.  Rows for scenarios without a
    known formula carry nan.
    """
    families = [spec.family for spec in config.rounds]
    round1 = config.sweep.param_name == "lambda" and families[0] == "noisy_bell"
    return round1, round1 and families[1:2] == ["wire2_computational"]


def _sweep_columns(config: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """The six CSV columns of the sweep as float64 arrays, in grid order.

    Rounds that do not own the swept parameter are built, decomposed and
    floored once.  The grid goes through the stacked engine in chunks
    sized so that no stacked array holds more than STACK_ENTRIES entries;
    for each chunk the swept round is built as one element stack over the
    chunk's values and checked with check_povm_stack, whose floored
    spectrum the engine takes.  The first point's stack is checked
    before the other rounds are built, so a swept round bad there fails
    first.  A closure error names the grid index and parameter value of
    the first point that fails.
    """
    if config.sweep is None:
        raise ConfigError("config has no sweep block")
    swept = config.swept_round_index()
    grid = np.linspace(config.sweep.start, config.sweep.stop, config.sweep.steps)
    worker_count(len(grid))  # rejects a malformed SWAPFORGE_THREADS
    if not len(grid):  # an empty grid from a config built in code
        return (grid,) * 6
    family, param = config.rounds[swept].family, config.sweep.param_name
    first = check_povm_stack(family_sweep_stack(family, param, grid[:1]))
    spectra = [
        first if i == swept else _round_spectrum(config.build_round(i))
        for i in range(len(config.rounds))
    ]
    branches = prod(v.shape[1] for _, v in spectra)
    chunk = max(1, STACK_ENTRIES // (branches * config.local_dim**4))
    parts = []
    for start in range(0, len(grid), chunk):

        def point(g: int) -> str:  # g indexes the chunk starting at grid index `start`
            return f"grid index {start + g} ({param}={float(grid[start + g])!r})"

        stack = family_sweep_stack(family, param, grid[start : start + chunk])
        spectra[swept] = check_povm_stack(stack)
        parts.append(_chain_negativities(config.local_dim, spectra, config.prob_tol, point))
    avg1, avg_last, top = (np.concatenate(column) for column in zip(*parts))
    nan = np.full(len(grid), math.nan)
    if len(config.rounds) == 1:
        avg_last = nan
    has_round1, has_round2 = _paper_formulas_apply(config)
    f1, f2 = paper_formulas(grid) if has_round1 else (nan, nan)
    return grid, avg1, avg_last, f1, f2 if has_round2 else nan, top


def _rows(columns) -> list[SweepRow]:
    return list(map(SweepRow, *(column.tolist() for column in columns)))


def sweep_rows(config: ScenarioConfig) -> list[SweepRow]:
    """Evaluate every grid point; grid order is preserved in the output."""
    return _rows(_sweep_columns(config))


def run_sweep(config: ScenarioConfig, csv_path: str | None = None) -> list[SweepRow]:
    """Run the sweep and write the CSV (to the configured path unless
    overridden); returns the rows.  The CSV body is formatted from the
    columns in one ``%`` operation, "%.15g" per value."""
    columns = _sweep_columns(config)
    target = csv_path if csv_path is not None else config.resolve_output(config.outputs.csv_path)
    if target is not None:
        values = tuple(np.stack(columns, axis=-1).ravel().tolist())
        body = ("%.15g," * 5 + "%.15g\n") * len(columns[0]) % values
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n" + body)
    return _rows(columns)


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute the measurement chain once and build the per-branch report.

    Every branch is expanded in one stacked pass (``stacked_branches``;
    ``chain`` stays the reference).  Report numbers carry 15 significant
    digits and the report file is byte-identical from run to run.
    """
    scenario = SwapScenario(config.local_dim, config.build_rounds())
    found = stacked_branches(scenario, config.prob_tol)
    paths = found.outcome_paths.tolist()
    probabilities = found.probability.tolist()
    negativities = found.negativity14.tolist()
    try:
        average = _closed_average(probabilities, negativities)
    except IncompleteBranchSet as exc:
        expanded = prod(len(povm) for povm in scenario.rounds)
        raise IncompleteBranchSet(
            f"{exc}: {len(paths)} of {expanded} branches kept at prob_tol={config.prob_tol!r}"
        ) from exc
    # classify per round only the elements on kept branches (a dropped one, say
    # traceless, needs no class), from the spectra the round's Povm keeps
    labels = {}
    for r, povm in enumerate(scenario.rounds):
        kept = sorted({path[r] for path in paths})
        w, v = povm.floored_spectrum
        for n, ec in zip(kept, _classify(povm.matrices[kept], w[kept], v[kept])):
            labels[r, n] = (verdict_label(ec.verdict, ec.local_dim), ec.operation_kind)
    columns = (found.c14vs23.tolist(), found.c12vs34.tolist())
    branches = [
        {
            "outcome_path": path,
            "probability": _sig15(p),
            "negativity14": _sig15(neg),
            "c14vs23": _sig15(c14),
            "c12vs34": _sig15(c12),
            "classification": [
                dict(zip(("verdict", "operation_kind"), labels[r, n])) for r, n in enumerate(path)
            ],
        }
        for path, p, neg, c14, c12 in zip(paths, probabilities, negativities, *columns)
    ]
    report = {
        "local_dim": config.local_dim,
        "rounds": [
            {"family": spec.family, "params": spec.params} for spec in config.rounds
        ],
        "branches": branches,
        "average_negativity": _sig15(average),
    }
    target = config.resolve_output(config.outputs.report_path)
    if target is not None:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(_report_text(report) + "\n")
    return report


# A kept branch and a classification entry, indented as by json.dumps(indent=2).
_BRANCH = (
    '\n    {\n      "outcome_path": [\n%s\n      ],\n      "probability": %s,'
    '\n      "negativity14": %s,\n      "c14vs23": %s,\n      "c12vs34": %s,'
    '\n      "classification": [%s\n      ]\n    }'
)
_CLASS = '\n        {\n          "verdict": %s,\n          "operation_kind": %s\n        }'


@lru_cache(maxsize=64)
def _class_entry(verdict: str, kind: str) -> str:
    return _CLASS % (json.dumps(verdict), json.dumps(kind))


def _num(x) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)  # NaN, Infinity, -Infinity


def _report_text(report: dict) -> str:
    """json.dumps(report, indent=2) of a run_scenario report from fixed
    templates (with an indent, json leaves its C encoder for Python)."""
    head = json.dumps({"local_dim": report["local_dim"], "rounds": report["rounds"]}, indent=2)
    branches = [
        _BRANCH % (
            ",\n".join(f"        {n!r}" for n in b["outcome_path"]),
            *(_num(b[key]) for key in ("probability", "negativity14", "c14vs23", "c12vs34")),
            ",".join(_class_entry(c["verdict"], c["operation_kind"]) for c in b["classification"]),
        )
        for b in report["branches"]
    ]
    body = "[" + ",".join(branches) + "\n  ]" if branches else "[]"
    average = _num(report["average_negativity"])
    # head[:-2] drops the "\n}" that closes the head document
    return f'{head[:-2]},\n  "branches": {body},\n  "average_negativity": {average}\n}}'
