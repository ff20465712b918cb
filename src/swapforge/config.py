"""Scenario configuration: a JSON document describing the initial
dimension, the measurement chain, an optional parameter sweep, and
output paths.

Schema::

    {
      "local_dim": 2,
      "rounds": [
        {"family": "noisy_bell", "params": {"lambda": 0.8}},
        {"family": "wire2_computational"}
      ],
      "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 21},
      "outputs": {"csv_path": "sweep.csv", "report_path": "report.json"},
      "tolerance_overrides": {"prob_tol": 1e-12}
    }

Relative paths inside a config resolve against the config file's
directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .families import FAMILIES, _is_finite_number, build_family
from .states import Povm, _known_keys, _read_json
from .tolerances import PROB_TOL

__all__ = [
    "OutputsSpec",
    "RoundSpec",
    "ScenarioConfig",
    "SweepSpec",
    "TOLERANCE_KEYS",
    "load_scenario_config",
]


@dataclass(frozen=True)
class RoundSpec:
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    param_name: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class OutputsSpec:
    csv_path: str | None = None
    report_path: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    local_dim: int
    rounds: tuple[RoundSpec, ...]
    sweep: SweepSpec | None = None
    outputs: OutputsSpec = OutputsSpec()
    prob_tol: float = PROB_TOL
    base_dir: str = "."

    def swept_round_index(self) -> int | None:
        """Index of the single round whose family sweeps the swept parameter."""
        if self.sweep is None:
            return None
        families = [FAMILIES.get(spec.family) for spec in self.rounds]
        owners = [
            i
            for i, family in enumerate(families)
            if family and family.spectrum and family.params == (self.sweep.param_name,)
        ]
        if len(owners) != 1:
            raise ConfigError(
                f"sweep parameter {self.sweep.param_name!r} must belong to exactly one "
                f"round's family, found {len(owners)}"
            )
        return owners[0]

    def build_round(self, index: int) -> Povm:
        """Instantiate one round with its configured parameters; a sweep
        takes its swept round from its family's ``spectrum`` instead."""
        spec = self.rounds[index]
        params = dict(spec.params)
        if spec.family == "file" and "path" in params:
            params["path"] = os.path.join(self.base_dir, params["path"])
        return build_family(spec.family, params)

    def build_rounds(self) -> tuple[Povm, ...]:
        """Instantiate the measurement chain."""
        return tuple(self.build_round(i) for i in range(len(self.rounds)))

    def resolve_output(self, path: str | None) -> str | None:
        if path is None:
            return None
        return os.path.join(self.base_dir, path)


# A sweep holds six float64 columns (~63 B a point) and writes its CSV in blocks.
MAX_SWEEP_STEPS = 1_000_000

# Tolerance names a config may override; anything else is a typo.
TOLERANCE_KEYS = ("prob_tol",)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_path(value) -> bool:
    """A string that can name a file: not empty, no NUL byte."""
    return isinstance(value, str) and value != "" and "\0" not in value


def load_scenario_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    doc = _read_json(path, ConfigError, "config")
    _require(isinstance(doc, dict), "config must be a JSON object")
    top = ("local_dim", "rounds", "sweep", "outputs", "tolerance_overrides")
    _known_keys(doc, top, "config", ConfigError)

    local_dim = doc.get("local_dim", 2)
    _require(isinstance(local_dim, int) and local_dim >= 2, "local_dim must be an integer >= 2")

    raw_rounds = doc.get("rounds")
    _require(isinstance(raw_rounds, list) and raw_rounds, "config needs a nonempty 'rounds' list")
    rounds = []
    for i, entry in enumerate(raw_rounds):
        _require(isinstance(entry, dict) and "family" in entry, f"round {i} needs a 'family'")
        _known_keys(entry, ("family", "params"), f"round {i}", ConfigError)
        family = entry["family"]
        _require(
            isinstance(family, str) and family in FAMILIES, f"round {i}: unknown family {family!r}"
        )
        params = entry.get("params", {})
        _require(isinstance(params, dict), f"round {i}: params must be an object")
        _known_keys(params, FAMILIES[family].params, f"round {i} ({family}) params", ConfigError)
        for name in params if FAMILIES[family].spectrum else ():  # a sweepable parameter
            _require(
                _is_finite_number(params[name]),
                f"round {i}: parameter {name!r} must be a finite number, got {params[name]!r}",
            )
        if family == "file" and "path" in params:
            _require(_is_path(params["path"]), f"round {i}: 'path' must be a file name string")
        rounds.append(RoundSpec(family=family, params=params))

    sweep = None
    if doc.get("sweep") is not None:
        raw = doc["sweep"]
        _require(isinstance(raw, dict), "sweep must be an object")
        _known_keys(raw, ("param_name", "start", "stop", "steps"), "sweep", ConfigError)
        for key in ("param_name", "start", "stop", "steps"):
            _require(key in raw, f"sweep needs {key!r}")
        steps = raw["steps"]
        _require(
            isinstance(steps, int) and 2 <= steps <= MAX_SWEEP_STEPS,
            f"sweep.steps must be an integer in [2, {MAX_SWEEP_STEPS}]",
        )
        for key in ("start", "stop"):
            _require(
                _is_finite_number(raw[key]),
                f"sweep.{key} must be a finite number, got {raw[key]!r}",
            )
        start, stop = float(raw["start"]), float(raw["stop"])
        _require(start <= stop, "sweep.start must not exceed sweep.stop")
        _require(_is_finite_number(stop - start), f"sweep range [{start!r}, {stop!r}] is too wide")
        sweep = SweepSpec(param_name=str(raw["param_name"]), start=start, stop=stop, steps=steps)

    raw_out = doc.get("outputs", {})
    _require(isinstance(raw_out, dict), "outputs must be an object")
    _known_keys(raw_out, ("csv_path", "report_path"), "outputs", ConfigError)
    for key in ("csv_path", "report_path"):
        value = raw_out.get(key)
        _require(value is None or _is_path(value), f"outputs.{key} must be a file name string")
    outputs = OutputsSpec(
        csv_path=raw_out.get("csv_path"), report_path=raw_out.get("report_path")
    )

    overrides = doc.get("tolerance_overrides", {})
    _require(isinstance(overrides, dict), "tolerance_overrides must be an object")
    for key, value in overrides.items():
        known = ", ".join(TOLERANCE_KEYS)
        _require(key in TOLERANCE_KEYS, f"unknown tolerance {key!r}; known: {known}")
        _require(
            _is_finite_number(value) and value >= 0,
            f"tolerance {key!r} must be a finite nonnegative number, got {value!r}",
        )

    config = ScenarioConfig(
        local_dim=local_dim,
        rounds=tuple(rounds),
        sweep=sweep,
        outputs=outputs,
        prob_tol=float(overrides.get("prob_tol", PROB_TOL)),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    if sweep is not None:
        config.swept_round_index()  # raises when the param is unowned or ambiguous
    return config
