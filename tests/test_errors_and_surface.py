"""Error paths and API-surface sanity that the happy-path tests skip."""

import json

import numpy as np
import pytest

import swapforge
from swapforge.cli import main
from swapforge.engine import (
    SwapScenario,
    chain,
    rho14_two_round_spectral,
    second_round_probability,
)
from swapforge.errors import (
    BadParameter,
    ConfigError,
    InvalidPovm,
    ShapeMismatch,
)
from swapforge.experiment import worker_count
from swapforge.families import SingleQubitElementParams, noisy_bell_povm
from swapforge.measures import BipartiteCut, negativity
from swapforge.sampling import random_element
from swapforge.states import DensityMatrix, Povm, PovmElement, PureState


def test_all_exports_resolve():
    for name in swapforge.__all__:
        assert getattr(swapforge, name) is not None


def test_scenario_rejects_empty_rounds():
    with pytest.raises(InvalidPovm):
        SwapScenario(2, ())


def test_scenario_rejects_dimension_mismatch(rng):
    povm = Povm([np.eye(9)], local_dim=3)
    with pytest.raises(ShapeMismatch):
        SwapScenario(2, (povm,))


def test_two_round_spectral_rejects_mixed_dims(rng):
    a = random_element(rng, d=2)
    b = random_element(rng, d=3)
    with pytest.raises(ShapeMismatch):
        rho14_two_round_spectral(a, b)


def test_second_round_probability_needs_initial_state_record(rng):
    # a record whose element does not describe its own production history
    # trips the redundant-path comparison instead of silently returning
    from swapforge.errors import InternalCheckError

    second = chain(SwapScenario(2, (noisy_bell_povm(0.5), noisy_bell_povm(0.8))))[0]
    em = random_element(rng, d=2)
    with pytest.raises(InternalCheckError):
        second_round_probability(second, em)


def test_measures_need_explicit_cut_beyond_two_wires():
    rho = DensityMatrix(np.eye(16) / 16, (2, 2, 2, 2))
    with pytest.raises(ShapeMismatch):
        negativity(rho)
    assert negativity(rho, BipartiteCut(left=(0, 1), right=(2, 3))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_pure_state_rejects_dim_mismatch():
    with pytest.raises(ShapeMismatch):
        PureState(np.array([1.0, 0.0]), (2, 2))


def test_single_qubit_params_reject_negative_weights():
    with pytest.raises(BadParameter):
        SingleQubitElementParams(theta=0.1, phi=0.2, tau1=-0.1, tau2=0.5)


def test_worker_count_rejects_negative(monkeypatch):
    monkeypatch.setenv("SWAPFORGE_THREADS", "-3")
    with pytest.raises(ConfigError):
        worker_count(4)


def test_verify_unknown_check_name():
    from swapforge.verify import run_check

    with pytest.raises(KeyError):
        run_check("not_a_check")


def test_cli_bad_tol_override(capsys):
    assert main(["verify", "--tol-override", "oops"]) == 2
    assert "error_code=ConfigParse" in capsys.readouterr().err
    assert main(["verify", "--tol-override", "x=notanumber"]) == 2


def test_povm_element_rejects_non_square_pair_dimension():
    with pytest.raises(ShapeMismatch):
        PovmElement(np.eye(5))  # 5 is not d*d
    with pytest.raises(ShapeMismatch):
        PovmElement(np.ones((2, 3)))


@pytest.mark.parametrize(
    "matrices,error",
    [
        ([], InvalidPovm),
        ([np.eye(4) / 2, np.eye(9) / 2], ShapeMismatch),
        ([np.ones(4)], ShapeMismatch),
        ([np.eye(5)], ShapeMismatch),
        ([np.ones((2, 3))], ShapeMismatch),
        ([np.eye(9) / 2, np.eye(4) / 2], ShapeMismatch),
    ],
)
def test_povm_from_matrices_rejects_bad_shapes(matrices, error):
    with pytest.raises(error):
        Povm(matrices)


_PAPER_CONFIG = {
    "rounds": [
        {"family": "noisy_bell", "params": {"lambda": 0.5}},
        {"family": "wire2_computational"},
    ],
    "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 3},
}


def _with(path, value):
    doc = json.loads(json.dumps(_PAPER_CONFIG))
    *outer, key = path
    node = doc
    for part in outer:
        node = node[part] if isinstance(node, list) else node.setdefault(part, {})
    node[key] = value
    return doc


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "doc",
    [
        _with(("sweep", "start"), "x"),
        _with(("tolerance_overrides", "prob_tol"), "abc"),
        _with(("rounds", 0, "params", "lambda"), None),
        _with(("tolerance_overrides", "prb_tol"), 1e-12),
        _with(("rounds", 0, "params", "lambda"), "0.5"),
        _with(("tolerance_overrides", "prob_tol"), float("nan")),
        _with(("tolerance_overrides", "prob_tol"), -1e-12),
        _with(("outputs", "report_path"), 5),
        _with(("outputs", "csv_path"), "a\0b"),
        _with(("rounds", 1), {"family": "file", "params": {"path": 5}}),
        _with(("sweep", "start"), 10**400),
        _with(("rounds", 0, "params", "lambda"), 10**400),
        _with(("rounds", 0, "params", "lambda"), float("inf")),
    ],
    ids=[
        "start-string", "prob_tol-string", "lambda-null", "unknown-tolerance", "lambda-string",
        "prob_tol-nan", "prob_tol-negative", "report_path-number", "csv_path-nul",
        "file-path-number", "start-huge-int", "lambda-huge-int", "lambda-inf",
    ],
)
def test_malformed_config_exits_two_with_error_code(tmp_path, capsys, command, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    extra = ["--csv", str(tmp_path / "out.csv")] if command == "sweep" else []
    assert main([command, str(path), *extra]) == 2
    assert capsys.readouterr().err.startswith("error_code=ConfigParse\n")


def test_verify_stdout_holds_only_check_rows(capsys):
    from swapforge.verify import CHECK_NAMES

    keep = ("two_round_worked_example", "sweep_determinism")
    skips = [arg for name in CHECK_NAMES if name not in keep for arg in ("--skip", name)]
    assert main(["verify", *skips]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECK_NAMES) + 1
    for line in lines[:-1]:
        assert line.split()[0] in ("PASS", "SKIP")
    assert lines[-1] == f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed"


@pytest.mark.parametrize(
    "args",
    [
        ["--skip", "lemma1_necesity"],
        ["--tol-override", "swap_identty=1"],
        ["--skip", "lemma1_necesity", "--tol-override", "swap_identty=1"],
        ["--tol-override", "swap_identity=nan"],
        ["--tol-override", "swap_identity=inf"],
        ["--tol-override", "rank_rel_tol=-1e-9"],
    ],
    ids=["unknown-skip", "unknown-tolerance", "both-unknown", "nan", "inf", "negative"],
)
def test_verify_rejects_unknown_names_and_bad_values(capsys, args):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error_code=ConfigParse\n")
    assert captured.out == ""


def test_verify_accepts_every_known_tolerance(capsys):
    from swapforge.verify import CHECK_NAMES, TOLERANCES

    skips = [arg for name in CHECK_NAMES for arg in ("--skip", name)]
    overrides = [arg for name in TOLERANCES for arg in ("--tol-override", f"{name}=0")]
    assert len(TOLERANCES) == 17
    assert main(["verify", *skips, *overrides]) == 0
    assert capsys.readouterr().out.count("SKIP") == len(CHECK_NAMES)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"rounds": "\xff"}')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error_code=ConfigParse\n")


def test_povm_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "meas.json"
    path.write_bytes(b"\x80\x81")
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error_code=FileFormat\n")


@pytest.mark.parametrize("field", ["theta", "phi", "tau1", "tau2"])
@pytest.mark.parametrize(
    "value",
    ["0.5", None, True, [1.0], float("inf"), float("nan"), pytest.param(10**400, id="huge-int")],
)
def test_single_qubit_params_reject_non_numbers(field, value):
    params = dict(theta=0.1, phi=0.2, tau1=0.5, tau2=0.5)
    params[field] = value
    with pytest.raises(BadParameter):
        SingleQubitElementParams(**params)
