import json
import os
import subprocess
import sys

import numpy as np
import pytest

import swapforge
from swapforge.cli import main
from swapforge.config import (
    MAX_SWEEP_STEPS,
    RoundSpec,
    ScenarioConfig,
    SweepSpec,
    load_scenario_config,
)
from swapforge.errors import ConfigError
from swapforge.experiment import CLOSED_FORMS, CSV_COLUMNS, run_scenario, run_sweep, sweep_rows
from swapforge.families import noisy_bell_povm
from swapforge.states import Povm, write_povm


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PAPER_DOC = {
    "local_dim": 2,
    "rounds": [
        {"family": "noisy_bell", "params": {"lambda": 0.8}},
        {"family": "wire2_computational"},
    ],
    "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 5},
    "outputs": {"csv_path": "sweep.csv"},
}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_scenario_config_round_trip(tmp_path):
    config = load_scenario_config(write_config(tmp_path, PAPER_DOC))
    assert config.local_dim == 2
    assert [r.family for r in config.rounds] == ["noisy_bell", "wire2_computational"]
    assert config.sweep.steps == 5
    assert config.swept_round_index() == 0


def test_config_rejects_unknown_family(tmp_path):
    doc = {"rounds": [{"family": "nope"}]}
    with pytest.raises(ConfigError):
        load_scenario_config(write_config(tmp_path, doc))


def test_config_rejects_unowned_sweep_param(tmp_path):
    doc = {
        "rounds": [{"family": "bell_projective"}],
        "sweep": {"param_name": "lambda", "start": 0, "stop": 1, "steps": 3},
    }
    with pytest.raises(ConfigError, match="lambda"):
        load_scenario_config(write_config(tmp_path, doc))


def test_config_rejects_bad_sweep_bounds(tmp_path):
    doc = dict(PAPER_DOC, sweep={"param_name": "lambda", "start": 1, "stop": 0, "steps": 3})
    with pytest.raises(ConfigError):
        load_scenario_config(write_config(tmp_path, doc))
    for steps in (1, 10**6 + 1, 10**20):
        doc = dict(PAPER_DOC, sweep={"param_name": "lambda", "start": 0, "stop": 1, "steps": steps})
        with pytest.raises(ConfigError):
            load_scenario_config(write_config(tmp_path, doc))


# ---------------------------------------------------------------------------
# scenario and sweep runners
# ---------------------------------------------------------------------------


def test_run_scenario_noisy_bell_single_round(tmp_path):
    doc = {"rounds": [{"family": "noisy_bell", "params": {"lambda": 0.8}}]}
    config = load_scenario_config(write_config(tmp_path, doc))
    report = run_scenario(config)
    assert len(report["branches"]) == 4
    for branch in report["branches"]:
        assert branch["negativity14"] == pytest.approx(0.7, abs=1e-10)
    assert report["average_negativity"] == pytest.approx(0.7, abs=1e-10)


def test_run_scenario_report(tmp_path):
    doc = {
        "local_dim": 2,
        "rounds": [{"family": "bell_projective"}],
        "outputs": {"report_path": "report.json"},
    }
    config = load_scenario_config(write_config(tmp_path, doc))
    report = run_scenario(config)
    assert len(report["branches"]) == 4
    for branch in report["branches"]:
        assert branch["probability"] == pytest.approx(0.25)
        assert branch["negativity14"] == pytest.approx(1.0, abs=1e-10)
        assert branch["classification"][0]["verdict"] == "entangled"
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["average_negativity"] == pytest.approx(1.0, abs=1e-10)


def test_run_sweep_rows_and_csv(tmp_path):
    config = load_scenario_config(write_config(tmp_path, PAPER_DOC))
    assert run_sweep(config) == 5
    rows = sweep_rows(config)
    assert len(rows) == 5
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    # endpoints agree with single runs
    assert rows[0].param_value == 0.0
    assert rows[0].avg_neg_round2 == pytest.approx(0.0, abs=1e-12)
    assert rows[-1].avg_neg_round2 == pytest.approx(1.0, abs=1e-12)
    # formula columns carry the reference curves, unclamped on round 1
    assert rows[0].paper_formula_round1 == pytest.approx(-0.5)
    assert rows[-1].paper_formula_round1 == pytest.approx(1.0)


def test_sweep_endpoints_match_run(tmp_path):
    config = load_scenario_config(write_config(tmp_path, PAPER_DOC))
    assert run_sweep(config) == 5
    rows = sweep_rows(config)
    for lam, row in ((0.0, rows[0]), (1.0, rows[-1])):
        doc = {
            "local_dim": 2,
            "rounds": [
                {"family": "noisy_bell", "params": {"lambda": lam}},
                {"family": "wire2_computational"},
            ],
        }
        point = load_scenario_config(write_config(tmp_path, doc, name=f"pt{lam}.json"))
        report = run_scenario(point)
        assert report["average_negativity"] == pytest.approx(row.avg_neg_round2, abs=1e-12)


def test_sweep_reads_no_environment_variable(tmp_path, monkeypatch):
    # the thread-count variable of earlier releases, even malformed, changes nothing
    path = write_config(tmp_path, PAPER_DOC)
    monkeypatch.delenv("SWAPFORGE_THREADS", raising=False)
    assert main(["sweep", path, "--csv", str(tmp_path / "unset.csv")]) == 0
    monkeypatch.setenv("SWAPFORGE_THREADS", "junk")
    assert main(["sweep", path, "--csv", str(tmp_path / "junk.csv")]) == 0
    assert (tmp_path / "junk.csv").read_bytes() == (tmp_path / "unset.csv").read_bytes()


def test_sweep_of_no_steps_writes_the_header_alone(tmp_path):
    # a config file needs steps >= 2; one built in code may hold an empty grid
    rounds = (RoundSpec("noisy_bell"), RoundSpec("wire2_computational"))
    config = ScenarioConfig(2, rounds, sweep=SweepSpec("lambda", 0.0, 1.0, 0))
    assert run_sweep(config, csv_path=str(tmp_path / "empty.csv")) == 0
    assert sweep_rows(config) == []
    assert (tmp_path / "empty.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_run_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, {"rounds": [{"family": "bell_projective"}]})
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "average negativity" in out
    assert out.count("branch ") == 4


def test_cli_run_bad_config_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {"rounds": [{"family": "nope"}]})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "error_code=ConfigParse" in err


def test_cli_run_names_the_dropped_branches(tmp_path, capsys):
    # prob_tol = 1 drops every branch: the closure error says how many were kept
    doc = {key: PAPER_DOC[key] for key in ("local_dim", "rounds")}
    doc["tolerance_overrides"] = {"prob_tol": 1}
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error_code=IncompleteBranchSet\n"
        "branch probabilities sum to 0.0, expected 1: 0 of 8 branches kept at prob_tol=1.0\n"
    )


def test_cli_sweep_names_the_first_unclosed_grid_point(tmp_path, capsys):
    # prob_tol = 1 drops every branch at every point: the closure error names
    # the first point and how many of its branches were kept
    doc = {key: PAPER_DOC[key] for key in ("local_dim", "rounds", "sweep")}
    doc["tolerance_overrides"] = {"prob_tol": 1}
    assert main(["sweep", write_config(tmp_path, doc), "--csv", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err == (
        "error_code=IncompleteBranchSet\n"
        "branch probabilities sum to 0.0, expected 1 at grid index 0 (lambda=0.0): "
        "0 of 8 branches kept at prob_tol=1.0\n"
    )


def test_cli_run_missing_file_exit_three(capsys):
    assert main(["run", "/definitely/not/here.json"]) == 3
    assert "error_code=IO" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [5, 21])
def test_cli_sweep_deterministic_bytes(tmp_path, steps):
    # 21 steps is the paper sweep that verify checks 5 and 12 run in process
    doc = {**PAPER_DOC, "sweep": {**PAPER_DOC["sweep"], "steps": steps}}
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 0
    assert main(["sweep", path, "--csv", str(tmp_path / "b.csv")]) == 0
    written = (tmp_path / "sweep.csv").read_bytes()
    assert written == (tmp_path / "b.csv").read_bytes()
    rows = np.loadtxt(written.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == steps
    round1 = CLOSED_FORMS[("noisy_bell",)](rows[:, 0])
    round2 = CLOSED_FORMS[("noisy_bell", "wire2_computational")](rows[:, 0])
    assert np.abs(rows[:, 1] - np.maximum(round1, 0.0)).max() <= 1e-9
    assert np.abs(rows[:, 2] - round2).max() <= 1e-9


def test_cli_sweep_unowned_param_names_it(tmp_path, capsys):
    doc = {
        "rounds": [{"family": "bell_projective"}],
        "sweep": {"param_name": "lambda", "start": 0, "stop": 1, "steps": 3},
    }
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 2
    assert "lambda" in capsys.readouterr().err


# a config with one unknown key, and that key
UNKNOWN_KEYS = {
    "round param": (
        {"rounds": [{"family": "bell_projective", "params": {"lambda": 0.3}}]},
        "lambda",
    ),
    "misspelled round param": (
        {"rounds": [{"family": "noisy_bell", "params": {"lamda": 0.3}}]},
        "lamda",
    ),
    "round entry": ({"rounds": [{"family": "bell_projective", "parms": {}}]}, "parms"),
    "top level": (dict(PAPER_DOC, extra_key=1), "extra_key"),
    "sweep": (dict(PAPER_DOC, sweep=dict(PAPER_DOC["sweep"], stpes=5)), "stpes"),
    "outputs": (dict(PAPER_DOC, outputs={"report_pth": "report.json"}), "report_pth"),
}


@pytest.mark.parametrize("where", UNKNOWN_KEYS)
def test_cli_run_rejects_an_unknown_config_key(tmp_path, capsys, where):
    doc, key = UNKNOWN_KEYS[where]
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error_code=ConfigParse\n")
    assert f"unknown key {key!r}" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_run_rejects_an_unknown_separable_product_key(tmp_path, capsys):
    # four halves of the identity: a complete POVM without the stray key
    half = {"theta": 0.7, "phi": 0.3, "tau1": 0.5, "tau2": 0.5}
    elements = [{"a": half, "b": half} for _ in range(4)]
    elements[1]["c"] = 1
    doc = {"rounds": [{"family": "separable_product", "params": {"elements": elements}}]}
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error_code=BadParameter\n")
    assert "unknown key 'c'" in err


def test_cli_sweep_without_csv_target_fails_before_sweeping(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep called without a CSV target")

    monkeypatch.setattr("swapforge.cli.run_sweep", no_sweep)
    doc = {key: value for key, value in PAPER_DOC.items() if key != "outputs"}
    assert main(["sweep", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "error_code=ConfigParse" in err
    assert "no CSV target" in err


def test_cli_sweep_without_a_sweep_block_exits_two(tmp_path, capsys):
    doc = {key: PAPER_DOC[key] for key in ("local_dim", "rounds")}
    assert main(["sweep", write_config(tmp_path, doc), "--csv", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err == "error_code=ConfigParse\nconfig has no sweep block\n"
    assert not (tmp_path / "a.csv").exists()


def test_cli_usage_error_leads_with_its_error_code(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["bogus"])
    assert caught.value.code == 2
    assert capsys.readouterr().err.startswith("error_code=Usage\n")


def test_cli_classify_povm_without_elements_exits_two(tmp_path, capsys):
    path = tmp_path / "meas.json"
    path.write_text(json.dumps({"local_dim": 2, "elements": []}))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == "error_code=FileFormat\nPOVM document has no elements\n"


def test_d3_product_projectors_read_ppt_boundary_in_classify_and_run(tmp_path, capsys):
    # the nine |ij><ij| at d = 3: beyond qubits PPT does not certify separability
    write_povm(Povm([np.diag(row) for row in np.eye(9)]), tmp_path / "meas.json")
    assert main(["classify", str(tmp_path / "meas.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [el["verdict"] for el in doc["per_element"]] == ["ppt-boundary"] * 9
    config = {
        "local_dim": 3,
        "rounds": [{"family": "file", "params": {"path": "meas.json"}}],
        "outputs": {"report_path": "report.json"},
    }
    assert main(["run", write_config(tmp_path, config)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    labels = [c["verdict"] for b in report["branches"] for c in b["classification"]]
    assert labels == ["ppt-boundary"] * 9


def test_cli_classify_povm_file(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    write_povm(noisy_bell_povm(0.2), path)
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["measurement_entangled"] is False
    assert doc["lemma2_open_outcomes"] == [0, 1, 2, 3]


def test_cli_classify_bell_projective(tmp_path, capsys):
    path = tmp_path / "bell.json"
    write_povm(noisy_bell_povm(1.0), path)
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["measurement_entangled"] is True
    assert doc["lemma1_blocked"] is True


def test_cli_classify_non_psd_exit_two(tmp_path, capsys):
    mats = [np.diag([1.5, 1.0, 1.0, 1.0]), np.diag([-0.5, 0.0, 0.0, 0.0])]
    doc = {
        "local_dim": 2,
        "elements": [[[[float(v), 0.0] for v in row] for row in m] for m in mats],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error_code=InvalidPovm" in err
    assert "min eigenvalue" in err


def test_cli_file_family_resolves_relative_to_config(tmp_path):
    write_povm(noisy_bell_povm(0.9), tmp_path / "meas.json")
    doc = {"rounds": [{"family": "file", "params": {"path": "meas.json"}}]}
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 0


def test_cli_run_reports_past_a_traceless_element(tmp_path, capsys):
    write_povm(Povm([np.zeros((4, 4)), np.eye(4)], local_dim=2), tmp_path / "z.json")
    doc = {
        "rounds": [
            {"family": "file", "params": {"path": "z.json"}},
            {"family": "noisy_bell", "params": {"lambda": 0.7}},
        ]
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
        f"branch 1.{n}" for n in range(4)
    ]


# ---------------------------------------------------------------------------
# non-finite POVM file entries, through a fresh interpreter so that numpy
# warnings and tracebacks would reach the captured stderr
# ---------------------------------------------------------------------------


def fresh_python(*argv):
    """``python *argv`` in a fresh interpreter that imports this swapforge."""
    src = os.path.dirname(os.path.dirname(swapforge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def swapforge_cli(*argv):
    return fresh_python("-m", "swapforge.cli", *argv)


def non_finite_povm_file(tmp_path, pos, value):
    m = np.eye(4) / 2
    m[pos] = value
    doc = {
        "local_dim": 2,
        "elements": [[[[float(v), 0.0] for v in row] for row in e] for e in (m, np.eye(4) / 2)],
    }
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, which json reads back
    return path


@pytest.mark.parametrize(
    "command, pos, value",
    [
        ("classify", (0, 1), np.nan),
        ("classify", (1, 0), np.nan),
        ("classify", (1, 0), np.inf),
        ("classify", (0, 0), np.inf),
        ("run", (1, 0), np.nan),
        ("run", (0, 0), np.inf),
    ],
)
def test_cli_non_finite_povm_entry_exits_two(tmp_path, command, pos, value):
    path = non_finite_povm_file(tmp_path, pos, value)
    if command == "run":
        path = write_config(tmp_path, {"rounds": [{"family": "file", "params": {"path": path.name}}]})
    result = swapforge_cli(command, str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error_code=InvalidPovm\n"), result.stderr
    assert "fails validation" in result.stderr


@pytest.mark.parametrize("steps", ["-1", "1", str(MAX_SWEEP_STEPS + 1)])
def test_paper_sweep_script_takes_the_step_counts_a_config_takes(tmp_path, steps):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_paper_sweep.py")
    result = fresh_python(script, "--steps", steps, "--out", str(tmp_path / "p.csv"))
    assert result.returncode == 2, result.stderr
    assert f"--steps must lie in [2, {MAX_SWEEP_STEPS}], got {steps}" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "p.csv").exists()


def test_cli_classify_boolean_povm_entries_exit_two(tmp_path, capsys):
    path = tmp_path / "meas.json"
    write_povm(Povm([np.eye(4)]), path)
    doc = json.loads(path.read_text())
    doc["elements"][0][0][0] = [True, False]  # reads as 1 through complex()
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error_code=FileFormat\n")
    assert "boolean" in err


def test_cli_classify_unknown_povm_key_exits_two(tmp_path, capsys):
    path = tmp_path / "meas.json"
    write_povm(Povm([np.eye(4)]), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "elemnts": 3}))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error_code=FileFormat\n")
    assert "'elemnts'" in err


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # json.load raises RecursionError


@pytest.mark.parametrize(
    "command,deep,error_code",
    [
        ("classify", "povm", "FileFormat"),
        ("run", "config", "ConfigParse"),
        ("sweep", "config", "ConfigParse"),
        ("run", "povm", "FileFormat"),  # a file round's POVM
    ],
)
def test_cli_deeply_nested_json_exits_two(tmp_path, capsys, command, deep, error_code):
    povm = tmp_path / "meas.json"
    if deep == "povm":
        povm.write_text(DEEP_JSON)
    else:
        write_povm(Povm([np.eye(4)]), povm)
    path = povm
    if command != "classify":
        path = tmp_path / "scenario.json"
        doc = {"rounds": [{"family": "file", "params": {"path": povm.name}}]}
        path.write_text(DEEP_JSON if deep == "config" else json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error_code={error_code}\n")
    assert "nested too deeply to read" in err
    assert "not valid JSON" not in err and "recursion" not in err
    assert "Traceback" not in err


def test_verify_fault_injection_corrupted_rank_cutoff():
    # a corrupted rank tolerance misreads near-rank-1 elements as rank one,
    # and their branches are genuinely disturbable
    from swapforge.verify import run_check

    corrupted = run_check("lemma1_necessity", {"rank_rel_tol": 1e-1})
    assert not corrupted.passed
    assert corrupted.max_deviation > 1e-3
    # the candidate set is pinned: 200 rank-one elements plus the 20
    # near-rank-one contaminants the corrupted cutoff lets through
    assert corrupted.detail.endswith("; 220 rank-1 branches checked")
    # a cutoff of 1 or more reads every candidate as rank 0: all are checked
    at_one = run_check("lemma1_necessity", {"rank_rel_tol": 1.0})
    assert not at_one.passed
    assert at_one.detail.endswith("; 220 rank-1 branches checked")
    # a negative cutoff reads every candidate as rank 4: checking none fails
    negative = run_check("lemma1_necessity", {"rank_rel_tol": -1.0})
    assert not negative.passed
    assert negative.detail.endswith("; 0 rank-1 branches checked")
    healthy = run_check("lemma1_necessity")
    assert healthy.passed
    assert healthy.detail.endswith("; 200 rank-1 branches checked")


def test_cli_verify_skip_flag(capsys):
    skips = []
    for name in (
        "swap_identity", "born_normalization", "noisy_bell_single_round",
        "bipartition_closed_forms", "two_round_worked_example", "lemma1_necessity",
        "zero_c14_implies_zero_c12", "separable_residual_concurrence",
        "dual_path_equivalence", "qudit_generalization", "sweep_determinism",
    ):
        skips += ["--skip", name]
    assert main(["verify", *skips]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 11
    assert "psd_sqrt_closed_form" in out


def test_cli_verify_json_prints_one_row_per_check(capsys):
    from swapforge.verify import CHECK_NAMES

    run = ("bipartition_closed_forms", "psd_sqrt_closed_form")
    skips = [arg for name in CHECK_NAMES if name not in run for arg in ("--skip", name)]
    # a zero tolerance fails psd_sqrt_closed_form: the exit code is the table's
    argv = ["verify", "--json", *skips, "--tol-override", "psd_sqrt_closed_form=0"]
    assert main(argv) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["name"] for row in rows] == list(CHECK_NAMES)
    keys = {"name", "passed", "skipped", "max_deviation", "tolerance", "detail", "seconds"}
    assert all(set(row) == keys for row in rows)
    by_name = {row["name"]: row for row in rows}
    passed, failed = by_name["bipartition_closed_forms"], by_name["psd_sqrt_closed_form"]
    assert passed["passed"] and not passed["skipped"] and passed["seconds"] > 0.0
    assert not failed["passed"] and failed["tolerance"] == 0.0 and failed["max_deviation"] > 0.0
    skipped = [row for row in rows if row["name"] not in run]
    assert all(row["skipped"] and row["passed"] and row["seconds"] == 0.0 for row in skipped)
