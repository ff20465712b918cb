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

import json
import math
import numbers
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .families import FAMILIES, build_family, family_sweep_params
from .states import Povm

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
    tolerance_overrides: dict = field(default_factory=dict)
    base_dir: str = "."

    def swept_round_index(self) -> int | None:
        """Index of the single round whose family owns the swept parameter."""
        if self.sweep is None:
            return None
        owners = [
            i
            for i, spec in enumerate(self.rounds)
            if self.sweep.param_name in family_sweep_params(spec.family)
        ]
        if len(owners) != 1:
            raise ConfigError(
                f"sweep parameter {self.sweep.param_name!r} must belong to exactly one "
                f"round's family, found {len(owners)}"
            )
        return owners[0]

    def build_round(self, index: int, param_value: float | None = None) -> Povm:
        """Instantiate one round, substituting the swept parameter value
        when one is given and the round owns it."""
        spec = self.rounds[index]
        params = dict(spec.params)
        if param_value is not None and index == self.swept_round_index():
            params[self.sweep.param_name] = param_value
        if spec.family == "file" and "path" in params:
            params["path"] = os.path.join(self.base_dir, params["path"])
        return build_family(spec.family, params)

    def build_rounds(self, param_value: float | None = None) -> tuple[Povm, ...]:
        """Instantiate the measurement chain, substituting the swept
        parameter value when one is given."""
        return tuple(self.build_round(i, param_value) for i in range(len(self.rounds)))

    def resolve_output(self, path: str | None) -> str | None:
        if path is None:
            return None
        return os.path.join(self.base_dir, path)


# Tolerance names a config may override; anything else is a typo.
TOLERANCE_KEYS = ("prob_tol",)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A JSON number: strings, booleans and null are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_path(value) -> bool:
    """A string that can name a file: not empty, no NUL byte."""
    return isinstance(value, str) and value != "" and "\0" not in value


def load_scenario_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config must be a JSON object")

    local_dim = doc.get("local_dim", 2)
    _require(isinstance(local_dim, int) and local_dim >= 2, "local_dim must be an integer >= 2")

    raw_rounds = doc.get("rounds")
    _require(isinstance(raw_rounds, list) and raw_rounds, "config needs a nonempty 'rounds' list")
    rounds = []
    for i, entry in enumerate(raw_rounds):
        _require(isinstance(entry, dict) and "family" in entry, f"round {i} needs a 'family'")
        family = entry["family"]
        _require(
            isinstance(family, str) and family in FAMILIES, f"round {i}: unknown family {family!r}"
        )
        params = entry.get("params", {})
        _require(isinstance(params, dict), f"round {i}: params must be an object")
        for name in sorted(family_sweep_params(family) & params.keys()):
            _require(
                _is_number(params[name]),
                f"round {i}: parameter {name!r} must be a number, got {params[name]!r}",
            )
        if family == "file" and "path" in params:
            _require(_is_path(params["path"]), f"round {i}: 'path' must be a file name string")
        rounds.append(RoundSpec(family=family, params=params))

    sweep = None
    if doc.get("sweep") is not None:
        raw = doc["sweep"]
        _require(isinstance(raw, dict), "sweep must be an object")
        for key in ("param_name", "start", "stop", "steps"):
            _require(key in raw, f"sweep needs {key!r}")
        steps = raw["steps"]
        _require(isinstance(steps, int) and steps >= 2, "sweep.steps must be an integer >= 2")
        for key in ("start", "stop"):
            _require(
                _is_number(raw[key]) and math.isfinite(raw[key]),
                f"sweep.{key} must be a finite number, got {raw[key]!r}",
            )
        start, stop = float(raw["start"]), float(raw["stop"])
        _require(start <= stop, "sweep.start must not exceed sweep.stop")
        sweep = SweepSpec(param_name=str(raw["param_name"]), start=start, stop=stop, steps=steps)

    raw_out = doc.get("outputs", {})
    _require(isinstance(raw_out, dict), "outputs must be an object")
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
            _is_number(value) and math.isfinite(value) and value >= 0,
            f"tolerance {key!r} must be a finite nonnegative number, got {value!r}",
        )

    config = ScenarioConfig(
        local_dim=local_dim,
        rounds=tuple(rounds),
        sweep=sweep,
        outputs=outputs,
        tolerance_overrides={str(k): float(v) for k, v in overrides.items()},
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    if sweep is not None:
        config.swept_round_index()  # raises when the param is unowned or ambiguous
    return config
