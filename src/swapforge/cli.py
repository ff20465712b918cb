"""Command-line front end.

Subcommands: ``run`` executes a scenario config and reports every
branch, ``sweep`` writes the parameter-sweep CSV, ``classify`` reports
on a POVM file, ``verify`` runs the built-in verification suite.

Exit codes: 0 success, 1 verification failure, 2 input or validation
error, 3 I/O error.  Every failure path prints a machine-readable
``error_code=<name>`` line on stderr before exiting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .classify import classify_measurement, report_to_json
from .config import load_scenario_config
from .errors import (
    ConfigError,
    FileFormatError,
    InvalidPovm,
    SwapforgeError,
)
from .experiment import run_scenario, run_sweep
from .states import read_povm

__all__ = ["entry_point", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_IO_ERROR = 3


def _fail(code: int, error_code: str, message: str) -> int:
    print(f"error_code={error_code}", file=sys.stderr)
    print(message, file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    config = load_scenario_config(args.config)
    report = run_scenario(config)
    for branch in report["branches"]:
        path = ".".join(str(i) for i in branch["outcome_path"])
        kinds = ",".join(c["verdict"] + "/" + c["operation_kind"] for c in branch["classification"])
        print(
            f"branch {path}: p={branch['probability']:.15g} "
            f"N14={branch['negativity14']:.15g} "
            f"C14vs23={branch['c14vs23']:.15g} C12vs34={branch['c12vs34']:.15g} [{kinds}]"
        )
    print(f"average negativity: {report['average_negativity']:.15g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_scenario_config(args.config)
    if config.sweep is None:
        raise ConfigError("config has no sweep block")
    target = args.csv if args.csv is not None else config.resolve_output(config.outputs.csv_path)
    if target is None:
        raise ConfigError("no CSV target: set outputs.csv_path or pass --csv")
    count = run_sweep(config, csv_path=target)
    print(f"wrote {count} rows to {target}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    povm = read_povm(args.povm)
    print(report_to_json(classify_measurement(povm)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import CHECK_NAMES, TOLERANCES, run_verification

    overrides = {}
    for item in args.tol_override or []:
        if "=" not in item:
            raise ConfigError(f"--tol-override expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in TOLERANCES:
            raise ConfigError(
                f"--tol-override names unknown tolerance {key!r}; known: {', '.join(TOLERANCES)}"
            )
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigError(f"--tol-override value for {key!r} is not a number: {value!r}")
        if not math.isfinite(overrides[key]) or overrides[key] < 0.0:
            raise ConfigError(
                f"--tol-override value for {key!r} must be finite and nonnegative, got {value!r}"
            )
    unknown = [name for name in args.skip or [] if name not in CHECK_NAMES]
    if unknown:
        raise ConfigError(
            f"--skip names unknown check {unknown[0]!r}; known: {', '.join(CHECK_NAMES)}"
        )
    results = run_verification(tol_overrides=overrides, skip=tuple(args.skip or []))
    failures = sum(not r.passed for r in results)
    if args.json:
        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "SKIP" if r.skipped else "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.detail}")
        ran = sum(not r.skipped for r in results)
        failed = f" ({failures} failed)" if failures else ""
        skipped = f", {len(results) - ran} skipped" if ran < len(results) else ""
        print(f"{ran - failures}/{ran} checks passed{failed}{skipped}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems carry the machine-readable line like every other failure
        print("error_code=Usage", file=sys.stderr)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swapforge",
        description="Sequential entanglement swapping with generalized measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config and report every branch")
    p_run.add_argument("config", help="scenario config (JSON)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the parameter sweep and write CSV")
    p_sweep.add_argument("config", help="scenario config with a sweep block (JSON)")
    p_sweep.add_argument("--csv", help="override the CSV output path", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="classify a POVM file")
    p_cls.add_argument("povm", help="POVM file (JSON)")
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify", help="run the built-in verification suite")
    p_ver.add_argument(
        "--tol-override", action="append", metavar="KEY=VALUE",
        help="override a named tolerance (repeatable)",
    )
    p_ver.add_argument(
        "--skip", action="append", metavar="NAME",
        help="skip a named check (repeatable); skipped checks do not affect the exit code",
    )
    p_ver.add_argument(
        "--json", action="store_true",
        help="print one JSON object per check (name, passed, skipped, max_deviation, "
        "tolerance, detail, seconds) instead of the table",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_INPUT_ERROR, "ConfigParse", str(exc))
    except FileFormatError as exc:
        return _fail(EXIT_INPUT_ERROR, "FileFormat", str(exc))
    except InvalidPovm as exc:
        return _fail(EXIT_INPUT_ERROR, "InvalidPovm", str(exc))
    except SwapforgeError as exc:
        return _fail(EXIT_INPUT_ERROR, type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO_ERROR, "IO", str(exc))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
