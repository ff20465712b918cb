"""Error paths and API-surface sanity that the happy-path tests skip."""

import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import swapforge
from swapforge.cli import main
from swapforge.engine import (
    SwapScenario,
    apply_element,
    chain,
    initial_state,
    rho14_from_element,
    rho14_two_round_spectral,
    second_round_probability,
    stacked_chain_negativities,
)
from swapforge.errors import (
    BadParameter,
    InvalidPovm,
    ShapeMismatch,
)
from swapforge.families import SingleQubitElementParams, noisy_bell_povm
from swapforge.measures import BipartiteCut, negativity
from swapforge.sampling import random_element
from swapforge.states import DensityMatrix, Povm, PovmElement, PureState


def test_all_exports_resolve():
    # the package's __all__ and each module's, so a deleted name left in a list fails
    modules = [swapforge] + [
        importlib.import_module(f"swapforge.{m.name}") for m in pkgutil.iter_modules(swapforge.__path__)
    ]
    assert "swapforge.measures" in [module.__name__ for module in modules]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


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


def test_stacked_chain_needs_a_round():
    with pytest.raises(InvalidPovm):
        stacked_chain_negativities(2, [])


def test_apply_element_needs_four_wires_of_the_element_dimension():
    with pytest.raises(ShapeMismatch):
        apply_element(PureState(np.eye(8)[0], (2, 2, 2)), PovmElement(np.eye(4) / 4))
    with pytest.raises(ShapeMismatch):
        apply_element(initial_state(2), PovmElement(np.eye(9) / 9))


def test_rho14_of_a_zero_element_raises():
    with pytest.raises(InvalidPovm):
        rho14_from_element(PovmElement(np.zeros((4, 4))))


def test_rho14_after_orthogonal_wire2_projectors_raises():
    # wire 2 found in |0> cannot then be found in |1>
    zero, one = (PovmElement(np.kron(np.diag(p), np.eye(2))) for p in ([1.0, 0.0], [0.0, 1.0]))
    with pytest.raises(InvalidPovm):
        rho14_two_round_spectral(zero, one)


def test_single_qubit_params_reject_negative_weights():
    with pytest.raises(BadParameter):
        SingleQubitElementParams(theta=0.1, phi=0.2, tau1=-0.1, tau2=0.5)


def test_verify_unknown_check_name():
    from swapforge.verify import run_check

    with pytest.raises(KeyError):
        run_check("not_a_check")


def test_cli_bad_tol_override(capsys):
    assert main(["verify", "--tol-override", "oops"]) == 2
    assert "error_code=ConfigParse" in capsys.readouterr().err
    assert main(["verify", "--tol-override", "x=notanumber"]) == 2
    capsys.readouterr()
    # a known tolerance with a value that is not a number
    assert main(["verify", "--tol-override", "swap_identity=abc"]) == 2
    assert capsys.readouterr().err == (
        "error_code=ConfigParse\n"
        "--tol-override value for 'swap_identity' is not a number: 'abc'\n"
    )


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
    assert lines[-1] == f"2/2 checks passed, {len(CHECK_NAMES) - 2} skipped"


@pytest.mark.parametrize(
    "keep, code, summary",
    [((), 0, "0/0 checks passed, 13 skipped"),
     (("psd_sqrt_closed_form",), 1, "0/1 checks passed (1 failed), 12 skipped")],
    ids=["all-skipped", "one-failed"],
)
def test_verify_summary_counts_only_the_checks_that_ran(capsys, keep, code, summary):
    from swapforge.verify import CHECK_NAMES

    skips = [arg for name in CHECK_NAMES if name not in keep for arg in ("--skip", name)]
    assert main(["verify", *skips, "--tol-override", "psd_sqrt_closed_form=0"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == summary


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


def test_verify_accumulator_keeps_the_first_nan():
    from swapforge.verify import _result, _Worst

    worst = _Worst({"swap_identity": 0.5}, "swap_identity")
    assert worst.tol == 0.5
    for value, tag in ((1e-3, "a"), (math.nan, "b"), (1.0, "c"), (math.nan, "d")):
        worst.push(value, tag)
    assert math.isnan(worst.value) and worst.tag == "b"
    result = _result("swap_identity", worst)
    assert not result.passed
    assert result.detail == "max deviation nan at b"


def test_verify_nan_sweep_rows_fail_batched_sweep_equivalence(monkeypatch):
    # a NaN in the second of the three compared columns must not be dropped
    import swapforge.verify as verify

    real = verify.sweep_rows

    def nan_rows(config):
        return [row._replace(avg_neg_round2=math.nan) for row in real(config)]

    monkeypatch.setattr(verify, "sweep_rows", nan_rows)
    result = verify.run_check("batched_sweep_equivalence")
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert result.detail == "max deviation nan at paper lambda=0.0"


def test_verify_nan_csv_cell_fails_two_round_worked_example(monkeypatch):
    import swapforge.verify as verify

    lines = verify._paper_sweep_csv().splitlines(keepends=True)
    cells = lines[11].split(b",")
    cells[2] = b"nan"  # avg_neg_round2 at lambda = 0.5
    lines[11] = b",".join(cells)
    monkeypatch.setattr(verify, "_paper_sweep_csv", lambda: b"".join(lines))
    result = verify.run_check("two_round_worked_example")
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert "negativity/CSV dev nan (tol 1e-09)" in result.detail


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
