"""The three benchmark workloads and their correctness gates.

Each workload drives swapforge only through public functions, looked up
on their modules at call time so a traced run sees them.  ``op(i)`` runs
one timed operation; ``check(i)`` judges its output afterwards, outside
the timed region, and returns an error message or None.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from math import prod

import numpy as np

SWEEP_POINTS = 1001
QUDIT_SCENARIOS = 200
QUDIT_DIMS = ((2, 0.4), (3, 0.4), (4, 0.2))
QUDIT_MAX_BRANCHES = 256
SHAPE_SEED = 20240311
GATE_TOL = 1e-9


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def paper_curves(lam: float) -> tuple[float, float]:
    """The paper's averages for a white-noise Bell measurement: one round
    (clamped at zero below the separability edge) and one round followed
    by a wire-2 computational measurement."""
    round1 = max(0.0, (3.0 * lam - 1.0) / 2.0)
    round2 = (lam - 1.0 + math.sqrt(1.0 - 2.0 * lam + 5.0 * lam * lam)) / 2.0
    return round1, round2


def sweep_gate(csv: bytes, points: int) -> str | None:
    """None when every row matches both paper curves within GATE_TOL."""
    lines = csv.decode("utf-8").splitlines()
    header = lines[0].split(",")
    if len(lines) != points + 1:
        return f"expected {points} rows, got {len(lines) - 1}"
    for k, line in enumerate(lines[1:]):
        row = dict(zip(header, map(float, line.split(","))))
        lam = row["param_value"]
        if abs(lam - k / (points - 1)) > GATE_TOL:
            return f"row {k}: lambda {lam!r} is off the grid"
        round1, round2 = paper_curves(lam)
        for column, expected in (("avg_neg_round1", round1), ("avg_neg_round2", round2)):
            if not abs(row[column] - expected) <= GATE_TOL:
                return f"row {k}: {column}={row[column]!r}, paper curve gives {expected!r}"
    return None


class PaperSweep:
    """The headline sweep: noisy_bell(lambda) then wire2_computational."""

    name = "paper_sweep"
    pass_ops = 1

    def __init__(self, workdir: str, seed: int, points: int = SWEEP_POINTS):
        from swapforge import config

        self.points = points
        self.items_per_op = points
        self.min_ops = 2  # the CSV must be byte-identical across repeats
        self.config_path = os.path.join(workdir, "paper_sweep.json")
        self.csv_path = os.path.join(workdir, "paper_sweep.csv")
        _write_json(
            self.config_path,
            {
                "local_dim": 2,
                "rounds": [
                    {"family": "noisy_bell", "params": {"lambda": 0.5}},
                    {"family": "wire2_computational"},
                ],
                "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": points},
                "outputs": {"csv_path": "paper_sweep.csv"},
            },
        )
        self.setup_code = (
            "import swapforge, swapforge.config, swapforge.experiment; "
            f"swapforge.config.load_scenario_config({self.config_path!r})"
        )
        self.config = config.load_scenario_config(self.config_path)
        self.first_csv: bytes | None = None
        self.output_bytes = 0

    def op(self, i: int) -> None:
        from swapforge import experiment

        experiment.run_sweep(self.config, csv_path=self.csv_path)

    def check(self, i: int) -> str | None:
        csv = _read_bytes(self.csv_path)
        self.output_bytes = len(csv)
        if self.first_csv is None:
            self.first_csv = csv
            return sweep_gate(csv, self.points)
        return None if csv == self.first_csv else f"sweep {i}: CSV bytes differ from the first sweep"


def random_povm_matrices(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """n random PSD elements on d*d dimensions that sum to the identity:
    Ginibre seeds G G^H conjugated by the inverse square root of their sum."""
    dim = d * d
    seeds = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        seeds.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(seeds))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    mats = [inv_root @ s @ inv_root for s in seeds]
    return [(m + m.conj().T) / 2.0 for m in mats]


def write_povm_file(path: str, d: int, mats: list[np.ndarray]) -> None:
    """The POVM file format: row-major [re, im] pairs; JSON floats round-trip."""
    elements = [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats]
    _write_json(path, {"local_dim": d, "elements": elements})


def qudit_shapes(count: int) -> list[tuple[int, tuple[int, ...]]]:
    """(d, elements per round) per scenario, from a fixed design seed.

    A run's time is set almost entirely by how many branches of which
    dimension it expands, so the shape mix is the same for every workload
    seed (d in exact shares, then 1-3 rounds of 2..d^2 elements with at
    most QUDIT_MAX_BRANCHES branches); the seed draws the POVMs and the
    order.  Otherwise run-to-run spread would measure the draw of shapes.
    """
    rng = np.random.default_rng(SHAPE_SEED)
    dims = [d for d, weight in QUDIT_DIMS for _ in range(round(weight * count))]
    dims = (dims + [2] * count)[:count]
    shapes = []
    for d in dims:
        n_rounds = int(rng.integers(1, 4))
        while True:
            sizes = tuple(int(n) for n in rng.integers(2, d * d + 1, size=n_rounds))
            if prod(sizes) <= QUDIT_MAX_BRANCHES:
                break
        shapes.append((d, sizes))
    return shapes


class QuditRuns:
    """Seeded scenario configs over random POVM files; one op is one
    load_scenario_config + run_scenario, cycling through the configs."""

    name = "qudit_runs"

    def __init__(self, workdir: str, seed: int, count: int = QUDIT_SCENARIOS):
        rng = np.random.default_rng(seed)
        shapes = qudit_shapes(count)
        self.configs = []
        self.reports = []
        for i, k in enumerate(rng.permutation(count)):
            d, sizes = shapes[k]
            rounds = []
            for r, n in enumerate(sizes):
                povm_name = f"povm_{i:03d}_{r}.json"
                write_povm_file(os.path.join(workdir, povm_name), d, random_povm_matrices(rng, d, n))
                rounds.append({"family": "file", "params": {"path": povm_name}})
            report_name = f"report_{i:03d}.json"
            path = os.path.join(workdir, f"scenario_{i:03d}.json")
            _write_json(
                path,
                {"local_dim": d, "rounds": rounds, "outputs": {"report_path": report_name}},
            )
            self.configs.append(path)
            self.reports.append(os.path.join(workdir, report_name))
        self.items_per_op = 1
        self.pass_ops = count
        self.min_ops = count + 1  # every report digest is compared on a repeat
        self.digests: dict[int, str] = {}
        self.output_bytes = 0
        self.setup_code = (
            "import swapforge, swapforge.config, swapforge.experiment; "
            f"swapforge.config.load_scenario_config({self.configs[0]!r})"
        )

    def op(self, i: int) -> None:
        from swapforge import config, experiment

        experiment.run_scenario(config.load_scenario_config(self.configs[i % len(self.configs)]))

    def check(self, i: int) -> str | None:
        k = i % len(self.configs)
        data = _read_bytes(self.reports[k])
        self.output_bytes = len(data)
        total = sum(branch["probability"] for branch in json.loads(data)["branches"])
        if not abs(total - 1.0) <= GATE_TOL:
            return f"scenario {k}: branch probabilities sum to {total!r}"
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            return f"scenario {k}: report differs from its first run"
        return None

    def digest(self) -> str:
        """One digest over every report, in config order."""
        return hashlib.sha256("".join(self.digests[k] for k in sorted(self.digests)).encode()).hexdigest()


class VerifySuite:
    """The built-in acceptance suite, every check in-process."""

    name = "verify_suite"
    items_per_op = 1
    pass_ops = 1
    min_ops = 1
    output_bytes = 0
    setup_code = "import swapforge, swapforge.verify"

    def __init__(self, workdir: str, seed: int, checks: tuple[str, ...] | None = None):
        from swapforge import verify

        self.skip = tuple(n for n in verify.CHECK_NAMES if checks is not None and n not in checks)
        self.expected = len(verify.CHECK_NAMES) - len(self.skip)
        self.results = []

    def op(self, i: int) -> None:
        from swapforge import verify

        self.results = verify.run_verification(skip=self.skip)

    def check(self, i: int) -> str | None:
        passed = [r.name for r in self.results if r.passed and not r.skipped]
        if len(passed) != self.expected:
            failed = [r.name for r in self.results if not r.passed]
            return f"{len(passed)}/{self.expected} checks passed; failed: {failed}"
        return None


WORKLOADS = {w.name: w for w in (PaperSweep, QuditRuns, VerifySuite)}
