"""Scenario execution behind the CLI: single runs with per-branch
reports, and parameter sweeps emitting deterministic CSV.

CSV contract: fixed column order (param_value, avg_neg_round1,
avg_neg_round2, paper_formula_round1, paper_formula_round2,
max_branch_negativity), header row, '.' decimal separator, every value
printed with 15 significant digits ("%.15g"), newline-terminated rows.
Rows are computed in grid order by one deterministic stacked pass and
written from its columns in bounded blocks, so output is byte-stable
across runs.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from . import linalg
from .classify import _classify, _sig15, verdict_label
from .config import ScenarioConfig
from .engine import (
    STACK_ENTRIES,
    SwapScenario,
    _chain_negativities,
    _checked_average,
    _round_spectrum,
    stacked_branches,
)
from .errors import ConfigError
from .families import FAMILIES
from .states import check_spectrum_stack

__all__ = [
    "CLOSED_FORMS",
    "SweepRow",
    "run_scenario",
    "run_sweep",
    "sweep_rows",
    "worker_count",
]


class SweepRow(NamedTuple):
    """One sweep point; its fields, in order, are the CSV columns."""

    param_value: float
    avg_neg_round1: float
    avg_neg_round2: float
    paper_formula_round1: float
    paper_formula_round2: float
    max_branch_negativity: float


CSV_COLUMNS = SweepRow._fields


def worker_count(grid_size: int) -> int:
    """The number of threads a sweep runs on: 1, whatever the grid size."""
    return 1


# The paper's closed-form average negativities as functions of lambda (a
# float or an array), keyed by the exact chain of families they hold for.
# One white-noise Bell round goes negative below the separability edge
# lam = 1/3, where the measured average clamps at zero.  A key always sweeps
# round 0's lambda: noisy_bell is the only family with a spectrum, and
# swept_round_index rejects a sweep parameter that two rounds own.
CLOSED_FORMS = {
    ("noisy_bell",): lambda lam: (3.0 * lam - 1.0) / 2.0,
    ("noisy_bell", "wire2_computational"): lambda lam: (
        lam - 1.0 + np.sqrt(1.0 - 2.0 * lam + 5.0 * lam * lam)
    ) / 2.0,
}


def _sweep_columns(config: ScenarioConfig) -> tuple[np.ndarray, ...]:
    """The six CSV columns of the sweep as float64 arrays, in grid order.

    Rounds that do not own the swept parameter are built, checked and
    floored once (a built-in family's from its closed form).  The swept
    round's family hands over its elements' eigendecomposition in closed
    form (``spectrum``: K*D eigenvalues a point, one eigenvector table all
    points share); check_spectrum_stack checks it once per block of
    STACK_ENTRIES // (K*D) grid points, the first block before the other
    rounds are built, and the round is never decomposed.  The engine takes
    each block in chunks that keep every stacked array within STACK_ENTRIES
    entries, rooting a chunk's slice of the floored eigenvalues against the
    block's one table, and writes each chunk's values into columns
    allocated once at the grid's length.  A closure
    error names the grid index and parameter value of the first point
    that fails.
    """
    if config.sweep is None:
        raise ConfigError("config has no sweep block")
    d = linalg._local_dim(config.local_dim)
    swept = config.swept_round_index()
    grid = np.linspace(config.sweep.start, config.sweep.stop, config.sweep.steps)
    if not len(grid):  # an empty grid from a config built in code
        return (grid,) * 6
    spectrum, param = FAMILIES[config.rounds[swept].family].spectrum, config.sweep.param_name
    block = max(1, STACK_ENTRIES // spectrum(grid[:1])[0].size)  # w holds K*D entries a point
    first = check_spectrum_stack(*spectrum(grid[:block]))
    spectra = [
        first if i == swept else _round_spectrum(config.build_round(i))
        for i in range(len(config.rounds))
    ]
    branches = prod(v.shape[1] for _, v in spectra)
    chunk = max(1, STACK_ENTRIES // (branches * d**4))
    measured = np.empty((3, len(grid)))  # avg1, avg_last, top
    for lo in range(0, len(grid), block):
        w, v = first if lo == 0 else check_spectrum_stack(*spectrum(grid[lo : lo + block]))
        for start in range(lo, lo + len(w), chunk):

            def point(g: int) -> str:  # g indexes the chunk starting at grid index `start`
                return f"grid index {start + g} ({param}={float(grid[start + g])!r})"

            part = w[start - lo : start - lo + chunk]
            spectra[swept] = part, v
            measured[:, start : start + len(part)] = _chain_negativities(
                d, spectra, config.prob_tol, point
            )
    avg1, avg_last, top = measured
    nan = np.full(len(grid), math.nan)
    # each formula column reads the table at the exact chain its measured
    # column averages over, unclamped so a discrepancy stays visible
    families = tuple(spec.family for spec in config.rounds)
    f1, f2 = (CLOSED_FORMS[k](grid) if k in CLOSED_FORMS else nan for k in (families[:1], families))
    if len(families) == 1:
        avg_last = f2 = nan
    return grid, avg1, avg_last, f1, f2, top


def sweep_rows(config: ScenarioConfig) -> list[SweepRow]:
    """Evaluate every grid point; grid order is preserved in the output."""
    return list(map(SweepRow, *(column.tolist() for column in _sweep_columns(config))))


def run_sweep(config: ScenarioConfig, csv_path: str | None = None) -> int:
    """Run the sweep and write the CSV (to the configured path unless
    overridden); returns the row count.  The file is opened only once
    every column is computed, so a sweep that raises writes nothing.  The
    body is formatted and written STACK_ENTRIES // 6 rows at a time, one
    ``%`` operation a block, "%.15g" per value."""
    columns = _sweep_columns(config)
    target = csv_path if csv_path is not None else config.resolve_output(config.outputs.csv_path)
    if target is not None:
        rows = STACK_ENTRIES // len(columns)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for lo in range(0, len(columns[0]), rows):
                block = np.stack([column[lo : lo + rows] for column in columns], axis=-1)
                fh.write(("%.15g," * 5 + "%.15g\n") * len(block) % tuple(block.ravel().tolist()))
    return len(columns[0])


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute the measurement chain once and build the per-branch report.

    Every branch is expanded in one stacked pass (``stacked_branches``;
    ``chain`` stays the reference).  ``average_negativity`` is the sweep's
    cell: _checked_average of the full branch row, a dropped branch as
    zero.  Report numbers carry 15 significant digits and the report file
    is byte-identical from run to run.
    """
    scenario = SwapScenario(config.local_dim, config.build_rounds())
    found = stacked_branches(scenario, config.prob_tol)
    sizes = [len(povm) for povm in scenario.rounds]
    flat = np.ravel_multi_index(tuple(found.outcome_paths.T), sizes)
    weight, neg = np.zeros((2, 1, prod(sizes)))
    weight[0, flat], neg[0, flat] = found.probability, found.negativity14
    average = float(_checked_average(weight, neg, prob_tol=config.prob_tol, point=None)[0])
    paths = found.outcome_paths.tolist()
    probabilities = found.probability.tolist()
    negativities = found.negativity14.tolist()
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
        "local_dim": scenario.local_dim,
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
