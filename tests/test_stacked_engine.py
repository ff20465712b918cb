"""The stacked engine against the per-record chain and disturbance
check, which stay the reference: same averages, branch maxima,
per-branch values of run_scenario's report and per-outcome disturbances
to 1e-13, same branch dropping, same errors; real chains, which the
stacked engine expands in float64, and complex ones alike.  Also the
stacked POVM sampler against repeated random_povm."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import swapforge.engine
import swapforge.experiment
import swapforge.families
import swapforge.linalg
import swapforge.measures
import swapforge.states
from swapforge.classify import classify_element, verdict_label
from swapforge.cli import main
from swapforge.config import RoundSpec, ScenarioConfig, SweepSpec, load_scenario_config
from swapforge.engine import (
    MAX_BRANCHES,
    SwapScenario,
    _records,
    average_negativity,
    chain,
    disturbance_check,
    initial_state,
    stacked_branches,
    stacked_chain_negativities,
    stacked_disturbance,
)
from swapforge.errors import (
    BadParameter,
    IncompleteBranchSet,
    InvalidPovm,
    NotPsd,
    ShapeMismatch,
    ValidationFailure,
)
from swapforge.experiment import (
    CLOSED_FORMS,
    CSV_COLUMNS,
    run_scenario,
    run_sweep,
    sweep_rows,
)
from swapforge.families import (
    BELL_STATES,
    build_family,
    noisy_bell_povm,
    wire2_computational_povm,
)
from swapforge.linalg import floor_eigh, sqrt_from_spectrum
from swapforge.measures import GRAM_CUTOFF, _gram_concurrence
from swapforge.sampling import (
    random_element,
    random_povm,
    random_povm_stack,
    random_rank1_element,
)
from swapforge.states import Povm, check_povm_stack, write_povm

from conftest import noisy_bell_matrices

TOL = 1e-13


def reference(d, povms, prob_tol=1e-12):
    first = average_negativity(chain(SwapScenario(d, povms[:1]), prob_tol))
    records = chain(SwapScenario(d, povms), prob_tol)
    return first, average_negativity(records), max(rec.negativity14 for rec in records)


def stacks_of(chains):
    """Round-by-round element stacks, one grid point per chain."""
    return [
        np.stack([[el.matrix for el in povms[r].elements] for povms in chains])
        for r in range(len(chains[0]))
    ]


def assert_matches_chain(d, stacks, prob_tol=1e-12):
    """stacked_chain_negativities against chain at every grid point of
    element stacks whose leading axis is the grid or 1 (shared)."""
    grid = max(len(s) for s in stacks)
    got = stacked_chain_negativities(d, stacks, prob_tol)
    for g in range(grid):
        povms = [Povm(s[min(g, len(s) - 1)], d) for s in stacks]
        for column, value in zip(got, reference(d, povms, prob_tol)):
            assert abs(column[g] - value) <= TOL


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_rounds", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_chains_match_chain(d, n_rounds, seed):
    rng = np.random.default_rng(1000 * d + 10 * n_rounds + seed)
    shape = [int(k) for k in rng.integers(2, 4, size=n_rounds)]
    chains = [[random_povm(rng, d=d, n_elements=k) for k in shape] for _ in range(3)]
    assert_matches_chain(d, stacks_of(chains))


def test_shared_round_broadcasts_over_the_grid(rng):
    shared = random_povm(rng, d=2, n_elements=3)
    chains = [[random_povm(rng, d=2, n_elements=2), shared] for _ in range(4)]
    stacks = stacks_of(chains)
    stacks[1] = stacks[1][:1]
    got = stacked_chain_negativities(2, stacks)
    full = stacked_chain_negativities(2, stacks_of(chains))
    for a, b in zip(got, full):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=TOL)


def dropping_povm(eps):
    """A Bell projector scaled by eps (a maximally entangled branch of
    probability eps/4) plus two halves of the rest."""
    tiny = eps * np.outer(BELL_STATES[0], BELL_STATES[0].conj())
    rest = (np.eye(4) - tiny) / 2.0
    return Povm([tiny, rest, rest], local_dim=2)


@pytest.mark.parametrize("second", [False, True])
def test_dropped_branches_get_zero_weight_and_no_maximum(second):
    povms = [dropping_povm(1e-7)] + ([wire2_computational_povm()] if second else [])
    first, last, top = stacked_chain_negativities(2, stacks_of([povms]), prob_tol=1e-6)
    ref = reference(2, povms, prob_tol=1e-6)
    assert abs(first[0] - ref[0]) <= TOL
    assert abs(last[0] - ref[1]) <= TOL
    assert abs(top[0] - ref[2]) <= TOL
    # kept, the scaled Bell branch would carry negativity 1
    assert stacked_chain_negativities(2, stacks_of([povms]))[2][0] == pytest.approx(1.0)
    assert top[0] < 0.5


def test_zero_element_is_dropped():
    povms = [Povm([np.zeros((4, 4)), np.eye(4)], local_dim=2), noisy_bell_povm(0.7)]
    assert_matches_chain(2, stacks_of([povms]))


def test_incomplete_branch_set_raises_like_chain(rng):
    povms = [random_povm(rng, d=2, n_elements=4)]
    with pytest.raises(IncompleteBranchSet):
        reference(2, povms, prob_tol=0.3)
    with pytest.raises(IncompleteBranchSet):
        stacked_chain_negativities(2, stacks_of([povms]), prob_tol=0.3)


def test_max_branches_guard_like_chain():
    k = int(math.isqrt(MAX_BRANCHES)) + 1
    povm = Povm([np.eye(4) / k] * k, local_dim=2)
    with pytest.raises(InvalidPovm):
        chain(SwapScenario(2, (povm, povm)))
    stack = np.broadcast_to(np.eye(4) / k, (1, k, 4, 4))
    with pytest.raises(InvalidPovm):
        stacked_chain_negativities(2, [stack, stack])


def sweep_config(rounds, steps=7):
    return ScenarioConfig(
        local_dim=2,
        rounds=tuple(rounds),
        sweep=SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=steps),
    )


ONE_ROUND = ("noisy_bell",)
PAPER_PAIR = ("noisy_bell", "wire2_computational")


# each swept chain, and the CLOSED_FORMS keys its two formula columns
# read (None: the column is nan)
FORMULA_KEYS = {
    ONE_ROUND: (ONE_ROUND, None),
    PAPER_PAIR: (ONE_ROUND, PAPER_PAIR),
    (*PAPER_PAIR, "bell_projective"): (ONE_ROUND, None),
    ("noisy_bell", "bell_projective"): (ONE_ROUND, None),
    # the same value as the paper pair, but the table keys on the exact chain
    (*PAPER_PAIR, "wire2_computational"): (ONE_ROUND, None),
}


@pytest.mark.parametrize("families", FORMULA_KEYS, ids=",".join)
def test_formula_columns_key_on_exact_chain(families):
    rows = sweep_rows(sweep_config([RoundSpec(f) for f in families]))
    rest = [build_family(f) for f in families[1:]]
    for row in rows:
        ref = reference(2, (noisy_bell_povm(row.param_value), *rest))
        if len(families) == 1:
            assert math.isnan(row.avg_neg_round2)
        else:
            assert abs(row.avg_neg_round2 - ref[1]) <= TOL
        assert abs(row.avg_neg_round1 - ref[0]) <= TOL
        assert abs(row.max_branch_negativity - ref[2]) <= TOL
        formulas = (row.paper_formula_round1, row.paper_formula_round2)
        for got, key in zip(formulas, FORMULA_KEYS[families]):
            if key is None:
                assert math.isnan(got)
            else:
                assert got == CLOSED_FORMS[key](row.param_value)


def test_swept_round_not_first_and_file_round_read_once(tmp_path, rng, monkeypatch):
    povm = random_povm(rng, d=2, n_elements=3)
    write_povm(povm, tmp_path / "meas.json")
    doc = {
        "rounds": [
            {"family": "file", "params": {"path": "meas.json"}},
            {"family": "noisy_bell"},
        ],
        "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 9},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    config = load_scenario_config(str(path))
    reads = []
    real_read = swapforge.families.read_povm
    monkeypatch.setattr(swapforge.families, "read_povm", lambda p: reads.append(p) or real_read(p))
    rows = sweep_rows(config)
    assert len(reads) == 1
    for row in rows:
        ref = reference(2, (povm, noisy_bell_povm(row.param_value)))
        got = (row.avg_neg_round1, row.avg_neg_round2, row.max_branch_negativity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= TOL
        assert math.isnan(row.paper_formula_round1)


def test_paper_sweep_matches_chain_in_several_chunks(monkeypatch):
    import swapforge.experiment

    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 3 * 8 * 16)
    rows = sweep_rows(
        sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=11)
    )
    second = wire2_computational_povm()
    assert [row.param_value for row in rows] == np.linspace(0.0, 1.0, 11).tolist()
    for row in rows:
        ref = reference(2, (noisy_bell_povm(row.param_value), second))
        got = (row.avg_neg_round1, row.avg_neg_round2, row.max_branch_negativity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= TOL


def test_separable_branches_read_exactly_zero():
    # sum |eigenvalues| - 1 rounds to about -1e-16 on separable branches;
    # the clamp keeps the CSV free of negative negativities
    rows = sweep_rows(
        sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=101)
    )
    for row in rows:
        assert min(row.avg_neg_round1, row.avg_neg_round2, row.max_branch_negativity) >= 0.0


# ---------------------------------------------------------------------------
# run_scenario's stacked branches against chain's records.
# ---------------------------------------------------------------------------


def scenario_config(tmp_path, povms, prob_tol=None):
    """A config whose rounds are POVM files, reporting to report.json."""
    rounds = []
    for r, povm in enumerate(povms):
        write_povm(povm, tmp_path / f"round{r}.json")
        rounds.append({"family": "file", "params": {"path": f"round{r}.json"}})
    doc = {"local_dim": povms[0].local_dim, "rounds": rounds, "outputs": {"report_path": "report.json"}}
    if prob_tol is not None:
        doc["tolerance_overrides"] = {"prob_tol": prob_tol}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return load_scenario_config(str(path))


def assert_report_matches_chain(config, povms, prob_tol=1e-12):
    """run_scenario's branches are chain's records, path for path, with
    the same numbers to 1e-13; returns the report."""
    report = run_scenario(config)
    records = chain(SwapScenario(povms[0].local_dim, povms), prob_tol)
    assert [b["outcome_path"] for b in report["branches"]] == [
        list(rec.outcome_path) for rec in records
    ]
    for branch, rec in zip(report["branches"], records):
        for key in ("probability", "negativity14", "c14vs23", "c12vs34"):
            assert abs(branch[key] - getattr(rec, key)) <= TOL
    assert abs(report["average_negativity"] - average_negativity(records)) <= TOL
    return report


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_rounds", [1, 2, 3])
def test_run_scenario_matches_chain(tmp_path, d, n_rounds):
    rng = np.random.default_rng(2000 * d + n_rounds)
    high = 4 if d < 4 else 3  # keeps d=4 chains at a few dozen branches
    povms = [random_povm(rng, d=d, n_elements=int(k)) for k in rng.integers(2, high, size=n_rounds)]
    assert_report_matches_chain(scenario_config(tmp_path, povms), povms)


def test_a_tie_at_prob_tol_closes_on_neither_route(tmp_path, capsys):
    # each Born probability of the noisy Bell matrices at lambda = 0.62,
    # decomposed by eigh, rounds to 0.24999999999999997 or ...92 at
    # prob_tol = 0.25: chain keeps 0 of the 4 branches, the stacked route 2
    # (_expand's tie rule), and neither branch set closes.  The two the
    # stacked route keeps sit exactly at the cut: a branch whose
    # probability equals prob_tol is kept
    povm = Povm(noisy_bell_matrices([0.62])[0], local_dim=2)
    scenario = SwapScenario(2, (povm,))
    assert chain(scenario, 0.25) == []
    kept = stacked_branches(scenario, 0.25)
    assert kept.outcome_paths.tolist() == [[0], [1]]
    assert kept.probability.tolist() == [float.fromhex("0x1p-2")] * 2
    with pytest.raises(IncompleteBranchSet):
        average_negativity(chain(scenario, 0.25))
    write_povm(povm, tmp_path / "tie_povm.json")
    doc = {
        "rounds": [{"family": "file", "params": {"path": "tie_povm.json"}}],
        "tolerance_overrides": {"prob_tol": 0.25},
    }
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IncompleteBranchSet, match="2 of 4 branches kept at prob_tol=0.25$"):
        run_scenario(load_scenario_config(str(path)))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error_code=IncompleteBranchSet\n")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_run_scenario_classifies_like_classify_element(tmp_path, d):
    # each round's kept elements are classified in one classify_stack call
    rng = np.random.default_rng(4000 + d)
    povms = [random_povm(rng, d=d, n_elements=3), random_povm(rng, d=d, n_elements=2)]
    report = run_scenario(scenario_config(tmp_path, povms))
    for branch in report["branches"]:
        for r, (n, got) in enumerate(zip(branch["outcome_path"], branch["classification"])):
            ec = classify_element(povms[r].elements[n])
            assert got == {"verdict": verdict_label(ec.verdict, d), "operation_kind": ec.operation_kind}


def test_run_scenario_never_calls_chain(tmp_path, rng, monkeypatch):
    povms = [random_povm(rng, d=2, n_elements=3), random_povm(rng, d=2, n_elements=2)]
    config = scenario_config(tmp_path, povms)

    def refuse(*args, **kwargs):
        raise AssertionError("the per-record engine or a second POVM check was called")

    monkeypatch.setattr(swapforge.engine, "chain", refuse)
    monkeypatch.setattr(swapforge.engine, "apply_element", refuse)
    # the rounds are checked Povms: the engine does not check them again
    monkeypatch.setattr(swapforge.engine, "check_povm_stack", refuse)
    assert len(run_scenario(config)["branches"]) == 6


def test_run_scenario_checks_each_round_once(tmp_path, monkeypatch):
    # a round is checked where its file becomes a Povm, and not again
    rng = np.random.default_rng(5000)
    povms = [random_povm(rng, d=2, n_elements=k) for k in (3, 2, 4)]
    config = scenario_config(tmp_path, povms)
    checked = []
    real = swapforge.states._check_elements

    def spy(m):
        checked.append(m.shape)
        return real(m)

    monkeypatch.setattr(swapforge.states, "_check_elements", spy)
    run_scenario(config)
    assert checked == [(3, 4, 4), (2, 4, 4), (4, 4, 4)]


def test_run_scenario_decomposes_each_round_once(tmp_path, monkeypatch):
    # the eigh of a round's PSD check serves its roots and its classes
    rng = np.random.default_rng(5000)
    povms = [random_povm(rng, d=2, n_elements=k) for k in (3, 2, 4)]
    config = scenario_config(tmp_path, povms)
    decomposed = []
    real = np.linalg.eigh

    def spy(m, *args, **kwargs):
        decomposed.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    run_scenario(config)
    assert decomposed == [(3, 4, 4), (2, 4, 4), (4, 4, 4)]


def test_run_scenario_floors_each_round_once(tmp_path, monkeypatch):
    # the floor of a round's PSD-check eigh serves its element spectra,
    # its roots and its classes
    rng = np.random.default_rng(5000)
    povms = [random_povm(rng, d=2, n_elements=k) for k in (3, 2, 4)]
    config = scenario_config(tmp_path, povms)
    floored = []
    real = swapforge.linalg.floor_eigh

    def spy(w, v):
        floored.append(np.shape(v))
        return real(w, v)

    monkeypatch.setattr(swapforge.linalg, "floor_eigh", spy)
    run_scenario(config)
    assert floored == [(3, 4, 4), (2, 4, 4), (4, 4, 4)]


def test_sweep_floors_the_shared_round_once_and_the_swept_round_per_block(monkeypatch):
    # blocks of 384 // 16 = 24 points (4 x 4 eigenvalues each): 24, 24 and 2
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 3 * 8 * 16)
    floored = []
    real = swapforge.linalg.floor_eigh

    def spy(w, v):
        floored.append(np.shape(v))
        return real(w, v)

    monkeypatch.setattr(swapforge.linalg, "floor_eigh", spy)
    decomposed = spy_on(monkeypatch, "eigh")
    sweep_rows(sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=50))
    # the swept round's table is shared by every point of a block: floored
    # once each; wire2_computational's one table, floored once, is its
    # closed form too, so nothing is decomposed
    assert floored == [(1, 4, 4, 4), (1, 2, 4, 4)] + [(1, 4, 4, 4)] * 2
    assert decomposed == []


def test_run_scenario_takes_no_svd_concurrence_above_the_cutoff(tmp_path, monkeypatch):
    # every branch of a seeded d = 4 chain is far from a product across
    # both cuts, so both I-concurrences come from the Gram route alone
    rng = np.random.default_rng(5004)
    povms = [random_povm(rng, d=4, n_elements=k) for k in (3, 2)]
    config = scenario_config(tmp_path, povms)
    calls = []
    real = swapforge.measures._pure_concurrence

    def spy(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(swapforge.measures, "_pure_concurrence", spy)
    report = run_scenario(config)
    assert calls == []
    assert len(report["branches"]) == 6
    assert min(min(b["c14vs23"], b["c12vs34"]) for b in report["branches"]) >= GRAM_CUTOFF


def test_sweep_closure_error_names_the_grid_point(monkeypatch):
    # at lambda = 0.625, in the third two-point chunk, an outcome of
    # probability 2.5e-3 falls below prob_tol = 1e-2 with its two children
    # the POVM there is tiny = 1e-2 |bell_0><bell_0| and three (I - tiny)/3;
    # on the shared table, |bell_0> is the first eigenvector of elements 1-3
    def fix(values, w, v):
        w[values == 0.625] = [[0.0, 0.0, 0.0, 1e-2]] + [[(1.0 - 1e-2) / 3.0] + [1.0 / 3.0] * 3] * 3

    patch_swept_spectrum(monkeypatch, fix)
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 2 * 8 * 16)
    config = sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=9)
    config = dataclasses.replace(config, prob_tol=1e-2)
    with pytest.raises(IncompleteBranchSet) as caught:
        sweep_rows(config)
    # the kept weights sum to 1 - 2.5e-3 up to the rounding of the roots
    total = float(str(caught.value).split()[4].rstrip(","))
    assert abs(total - 0.9975) <= 1e-15
    assert str(caught.value) == (
        f"branch probabilities sum to {total!r}, expected 1 at grid index 5 (lambda=0.625): "
        "6 of 8 branches kept at prob_tol=0.01"
    )


def test_chain_takes_element_spectra_from_the_povm_check(monkeypatch):
    rng = np.random.default_rng(5000)
    povms = [random_povm(rng, d=2, n_elements=k) for k in (3, 2, 4)]
    calls = []
    real = swapforge.linalg.floor_eigh

    def spy(w, v):
        calls.append(np.shape(v))
        return real(w, v)

    monkeypatch.setattr(swapforge.linalg, "floor_eigh", spy)
    assert len(chain(SwapScenario(2, povms))) == 24
    assert calls == []


def test_lemma1_necessity_checks_each_branch_stack_once(monkeypatch):
    from swapforge.verify import run_check

    checked = []
    real = swapforge.states._check_completeness

    def spy(sums):
        checked.append(sums.shape)
        real(sums)

    monkeypatch.setattr(swapforge.states, "_check_completeness", spy)
    assert run_check("lemma1_necessity").passed
    assert checked == [(50, 4, 4)] * 200  # the element sums of 50 two-outcome POVMs


def test_sweep_checks_only_the_swept_round_per_block(monkeypatch):
    # wire2_computational is a checked Povm, decomposed once per sweep;
    # the swept noisy_bell spectrum is checked once per block of 24 points
    # (of 3-point engine chunks): the block's eigenvalues, and the one
    # table its points share
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 3 * 8 * 16)
    checked = []
    real = swapforge.experiment.check_spectrum_stack

    def spy(w, v):
        checked.append((w.shape, v.shape))
        return real(w, v)

    monkeypatch.setattr(swapforge.experiment, "check_spectrum_stack", spy)
    sweep_rows(sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=50))
    table = (1, 4, 4, 4)
    assert checked == [((g, 4, 4), table) for g in (24, 24, 2)]


def spy_on(monkeypatch, name):
    """Replace np.linalg.<name> by a wrapper; returns the list of the
    shapes it is called on."""
    shapes = []
    real = getattr(np.linalg, name)

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


@pytest.mark.parametrize("steps,entries", [(11, 3 * 8 * 16), (50, 3 * 8 * 16), (1001, None)])
def test_sweep_never_decomposes_the_swept_round(monkeypatch, steps, entries):
    # the swept noisy_bell round comes as a closed-form spectrum, and the
    # shared wire2_computational Povm is built from its own: no eigh, and
    # no element matrix check.  Every partial transpose of the chain splits
    # into two 2x2 blocks, whose trace norms are closed forms: no
    # eigvalsh.  The swept round is
    # checked once per block of STACK_ENTRIES // 16 points (4 x 4
    # eigenvalues each), one check for the 1001-point grid, and each
    # check gets the one table its points share
    if entries is not None:
        monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", entries)
    decomposed = spy_on(monkeypatch, "eigh")
    spectra = spy_on(monkeypatch, "eigvalsh")
    matrix_checks = []
    real_check = swapforge.states._check_elements

    def check_spy(m):
        matrix_checks.append(m.shape)
        return real_check(m)

    monkeypatch.setattr(swapforge.states, "_check_elements", check_spy)
    tables = []
    real = swapforge.experiment.check_spectrum_stack

    def spy(w, v):
        tables.append(v.shape)
        return real(w, v)

    monkeypatch.setattr(swapforge.experiment, "check_spectrum_stack", spy)
    rounds = [RoundSpec("noisy_bell"), RoundSpec("wire2_computational")]
    assert len(sweep_rows(sweep_config(rounds, steps))) == steps
    assert decomposed == []
    assert spectra == []
    assert matrix_checks == []
    block = swapforge.experiment.STACK_ENTRIES // 16
    assert tables == [(1, 4, 4, 4)] * math.ceil(steps / block)


def test_paper_sweep_makes_no_transposed_copy(monkeypatch):
    # the negativities read rho14 through the partial transpose's index
    # map, itself built once per d from one (d^2, d^2) index matrix
    swapforge.linalg._wire2_map(2)
    copies = []
    real = swapforge.linalg._transpose_wire2
    monkeypatch.setattr(
        swapforge.linalg, "_transpose_wire2", lambda m, d: copies.append(m.shape) or real(m, d)
    )
    rounds = [RoundSpec("noisy_bell"), RoundSpec("wire2_computational")]
    assert len(sweep_rows(sweep_config(rounds, 1001))) == 1001
    assert copies == []


def test_long_sweep_checks_blocks_of_at_most_stack_entries(tmp_path, monkeypatch):
    # 2001 points check in blocks of 1024 and 977, each within STACK_ENTRIES;
    # blocks of 16 points and chunks of 2 write the same bytes
    checked = []
    real = swapforge.experiment.check_spectrum_stack

    def spy(w, v):
        checked.append(np.shape(w))
        return real(w, v)

    monkeypatch.setattr(swapforge.experiment, "check_spectrum_stack", spy)
    config = sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], 2001)
    run_sweep(config, csv_path=str(tmp_path / "blocks.csv"))
    assert checked == [(1024, 4, 4), (977, 4, 4)]
    assert max(math.prod(shape) for shape in checked) <= swapforge.experiment.STACK_ENTRIES
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 2 * 8 * 16)
    run_sweep(config, csv_path=str(tmp_path / "small.csv"))
    assert len(checked) == 2 + math.ceil(2001 / 16)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "small.csv").read_bytes()


def test_dense_partial_transposes_take_one_eigvalsh_each(tmp_path, monkeypatch):
    # a random complex round leaves no zero entry to split along: each
    # negativity decomposes its whole (..., D, D) stack in one call
    rng = np.random.default_rng(2801)
    write_povm(random_povm(rng, d=2, n_elements=3), tmp_path / "meas.json")
    rounds = [RoundSpec("noisy_bell"), RoundSpec("file", {"path": "meas.json"})]
    config = dataclasses.replace(sweep_config(rounds, steps=11), base_dir=str(tmp_path))
    spectra = spy_on(monkeypatch, "eigvalsh")
    sweep_rows(config)
    # the first round's X-shaped states take the closed forms; the last
    # round's 11 grid points x 12 branches take one call
    assert spectra == [(11, 12, 4, 4)]
    del spectra[:]
    stacked_chain_negativities(3, [random_povm_stack(rng, 5, d=3, n_elements=2)] * 2)
    assert spectra == [(5, 2, 9, 9), (5, 4, 9, 9)]


def test_run_scenario_prob_tol_drops_a_branch_and_its_descendants(tmp_path):
    # the scaled Bell outcome has probability 2.5e-8, below the override
    povms = [dropping_povm(1e-7), wire2_computational_povm()]
    config = scenario_config(tmp_path, povms, prob_tol=1e-6)
    report = assert_report_matches_chain(config, povms, prob_tol=1e-6)
    assert [b["outcome_path"] for b in report["branches"]] == [[1, 0], [1, 1], [2, 0], [2, 1]]
    kept = run_scenario(scenario_config(tmp_path, povms))
    assert [b["outcome_path"][0] for b in kept["branches"]] == [0, 0, 1, 1, 2, 2]


def test_zero_element_branches_are_dropped_like_chain(tmp_path):
    povms = [Povm([np.zeros((4, 4)), np.eye(4)], local_dim=2), noisy_bell_povm(0.7)]
    scenario = SwapScenario(2, povms)
    records = chain(scenario)
    got = stacked_branches(scenario)
    assert got.outcome_paths.tolist() == [list(rec.outcome_path) for rec in records]
    assert got.outcome_paths[:, 0].tolist() == [1, 1, 1, 1]
    for b, rec in enumerate(records):
        for key in ("probability", "negativity14", "c14vs23", "c12vs34"):
            assert abs(getattr(got, key)[b] - getattr(rec, key)) <= TOL
    # the report classifies only the elements on kept branches, so the
    # traceless element, which has no class, does not stop it
    report = assert_report_matches_chain(scenario_config(tmp_path, povms), povms)
    assert len(report["branches"]) == 4
    assert all(branch["outcome_path"][0] == 1 for branch in report["branches"])


def test_run_scenario_incomplete_branch_set_raises_like_chain(tmp_path, rng):
    povms = [random_povm(rng, d=2, n_elements=4)]
    config = scenario_config(tmp_path, povms, prob_tol=0.3)
    with pytest.raises(IncompleteBranchSet, match="branch probabilities sum to"):
        reference(2, povms, prob_tol=0.3)
    with pytest.raises(IncompleteBranchSet, match="branch probabilities sum to"):
        run_scenario(config)
    # every branch dropped: the closure check sees an empty sum
    with pytest.raises(IncompleteBranchSet, match="sum to 0.0,"):
        run_scenario(scenario_config(tmp_path, povms, prob_tol=1.0))


def test_run_scenario_max_branches_guard_like_chain(tmp_path):
    k = int(math.isqrt(MAX_BRANCHES)) + 1
    povm = Povm([np.eye(4) / k] * k, local_dim=2)
    with pytest.raises(InvalidPovm, match="branches"):
        chain(SwapScenario(2, (povm, povm)))
    with pytest.raises(InvalidPovm, match="branches"):
        run_scenario(scenario_config(tmp_path, [povm, povm]))


def test_run_scenario_report_is_byte_stable(tmp_path, rng):
    povms = [random_povm(rng, d=3, n_elements=3), random_povm(rng, d=3, n_elements=2)]
    config = scenario_config(tmp_path, povms)
    report = run_scenario(config)
    first = (tmp_path / "report.json").read_bytes()
    run_scenario(config)
    assert (tmp_path / "report.json").read_bytes() == first
    # the bytes json.dump writes, plus one newline
    assert first == (json.dumps(report, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# Stacked disturbance against disturbance_check.
# ---------------------------------------------------------------------------


def first_branch(el):
    """The first-round branch of el alone, from the initial state."""
    return _records(initial_state(el.local_dim), [(el,)])[0]


def break_povm(povm, how):
    """Break one (K, D, D) POVM in place."""
    if how == "non-hermitian":
        povm[1, 0, 1] += 1e-6
    elif how == "non-psd":
        povm[0] -= np.eye(povm.shape[-1])  # still complete, no longer PSD
        povm[1] += np.eye(povm.shape[-1])
    elif how == "incomplete":
        povm *= 1.01
    else:
        povm[0, 0, 0] = np.nan


def corrupted(stack, how):
    """A copy of the stack with one POVM broken; returns it and the index
    of the broken POVM."""
    bad = stack.copy()
    index = {"non-hermitian": 2, "non-psd": 1, "incomplete": 3, "nan": 0}[how]
    break_povm(bad[index], how)
    return bad, index


CORRUPTIONS = [
    ("non-hermitian", ValidationFailure),
    ("non-psd", NotPsd),
    ("incomplete", InvalidPovm),
    ("nan", ValidationFailure),
]


def assert_disturbance_matches(rec, povms):
    """stacked_disturbance over the stacked POVMs equals disturbance_check
    POVM by POVM, outcome by outcome."""
    stack = np.array([[el.matrix for el in povm.elements] for povm in povms])
    kept, distance, change = stacked_disturbance(rec, stack)
    ref = [
        (j, m, t, n)
        for j, povm in enumerate(povms)
        for m, t, n in disturbance_check(rec, povm).per_outcome
    ]
    assert list(zip(*np.nonzero(kept))) == [(j, m) for j, m, _, _ in ref]
    for (_, _, t, n), got_t, got_n in zip(ref, distance, change):
        assert abs(got_t - t) <= TOL
        assert abs(got_n - n) <= TOL
    return kept, distance, change


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_stacked_disturbance_matches_disturbance_check(d, rank):
    rng = np.random.default_rng(100 * d + rank)
    rec = first_branch(random_element(rng, d=d, rank=rank))
    for k in (2, 3, 4):
        povms = [random_povm(rng, d=d, n_elements=k) for _ in range(3)]
        kept, distance, change = assert_disturbance_matches(rec, povms)
        assert kept.all()
        if rank > 1:
            assert distance.max() > 1e-2


def test_zero_second_element_is_dropped_on_both_paths(rng):
    rec = first_branch(random_element(rng, d=2, rank=2))
    povm = Povm([np.zeros((4, 4)), np.eye(4)], local_dim=2)
    kept, distance, change = assert_disturbance_matches(rec, [povm])
    assert kept.tolist() == [[False, True]]
    assert distance[0] <= TOL and change[0] <= TOL  # the identity moves nothing


@pytest.mark.parametrize("eps,dropped", [(1e-7, False), (1e-14, True)])
def test_outcome_below_prob_tol_is_dropped_on_both_paths(rng, eps, dropped):
    # the scaled Bell outcome has probability of order eps, PROB_TOL is 1e-12
    rec = first_branch(random_element(rng, d=2, rank=3))
    povms = [dropping_povm(eps), random_povm(rng, d=2, n_elements=3)]
    kept, _, _ = assert_disturbance_matches(rec, povms)
    assert kept.tolist() == [[not dropped, True, True], [True, True, True]]


@pytest.mark.parametrize("d", [2, 3])
def test_rank_one_branch_is_frozen(rng, d):
    rec = first_branch(random_rank1_element(rng, d=d))
    kept, distance, change = stacked_disturbance(rec, random_povm_stack(rng, 20, d=d))
    assert kept.all()
    assert distance.max() <= TOL
    assert change.max() <= TOL


@pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (1, 1, 9, 9), (2, 3, 1, 4, 4)])
def test_stacked_disturbance_rejects_wrong_shape(rng, shape):
    rec = first_branch(random_element(rng, d=2, rank=2))
    with pytest.raises(ShapeMismatch):
        stacked_disturbance(rec, np.broadcast_to(np.eye(shape[-1]), shape))


@pytest.mark.parametrize("how,error", CORRUPTIONS)
def test_stacked_disturbance_rejects_corrupted_stack(rng, how, error):
    # disturbance_check cannot be given such a POVM: building it raises
    rec = first_branch(random_element(rng, d=2, rank=2))
    bad, _ = corrupted(random_povm_stack(rng, 4, d=2, n_elements=3), how)
    with pytest.raises(error):
        stacked_disturbance(rec, bad)


# ---------------------------------------------------------------------------
# Stacked POVM sampler.
# ---------------------------------------------------------------------------


def reference_povm_matrices(rng, d, k):
    """random_povm's construction one POVM at a time: K Ginibre seeds,
    each drawn real part then imaginary part, conjugated by the inverse
    square root of their sum."""
    dim = d * d
    seeds = []
    for _ in range(k):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seeds.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(seeds))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [inv_root @ s @ inv_root for s in seeds]


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3)])
def test_povm_stack_equals_repeated_random_povm(d, k):
    seed = 10 * d + k
    stack = random_povm_stack(np.random.default_rng(seed), 6, d=d, n_elements=k)
    assert stack.shape == (6, k, d * d, d * d)
    rng = np.random.default_rng(seed)
    loop = [[el.matrix for el in random_povm(rng, d=d, n_elements=k).elements] for _ in range(6)]
    assert np.array_equal(stack, np.array(loop))
    rng = np.random.default_rng(seed)
    assert np.array_equal(stack, np.array([reference_povm_matrices(rng, d, k) for _ in range(6)]))


@pytest.mark.parametrize("how,error", CORRUPTIONS)
def test_check_povm_stack_rejects_corrupted_stack(rng, how, error):
    stack = random_povm_stack(rng, 4, d=2, n_elements=3)
    check_povm_stack(stack)
    bad, index = corrupted(stack, how)
    with pytest.raises(error):
        check_povm_stack(bad)
    with pytest.raises(error):
        Povm(bad[index], local_dim=2)


class _ZeroNormals:
    """A generator stand-in whose every normal draw is zero: the seeds sum
    to the zero matrix and its inverse square root is not finite."""

    def normal(self, size):
        return np.zeros(size)


def test_sampler_raises_on_a_corrupted_stack():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValidationFailure):
            random_povm_stack(_ZeroNormals(), 3, d=2, n_elements=2)


# ---------------------------------------------------------------------------
# One decomposition per element, no first-round matmul: bit for bit the
# round loop that took a separate eigh and a matmul from initial_state.
# ---------------------------------------------------------------------------


def matmul_expansion(d, stacks, prob_tol=1e-12):
    """The stacked round loop with one floored eigh of every element
    of every round and a broadcast matmul in every round, the first one
    from initial_state's amplitudes; returns the last (x, weight)."""
    dim = d * d
    grid = max(s.shape[0] for s in stacks)
    elements = np.concatenate([s.reshape(-1, dim, dim) for s in stacks])
    roots = sqrt_from_spectrum(*floor_eigh(*np.linalg.eigh(elements)))
    x0 = initial_state(d).tensor().transpose(1, 2, 0, 3).reshape(dim, dim)
    x = np.broadcast_to(x0, (grid, 1, dim, dim))
    weight = np.ones((grid, 1))
    offset = 0
    rounds = []
    for s in stacks:
        op = roots[offset : offset + s.shape[0] * s.shape[1]].reshape(s.shape)
        offset += s.shape[0] * s.shape[1]
        out = op[:, None] @ x[:, :, None]
        p = (out.real * out.real + out.imag * out.imag).sum(axis=(-2, -1))
        p = np.where(p >= max(prob_tol, 1e-12), p, 0.0)
        scale = np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=p > 0.0)
        x = (out * scale[..., None, None]).reshape(grid, -1, dim, dim)
        weight = (weight[:, :, None] * p).reshape(grid, -1)
        rounds.append((x, weight))
    return rounds


def seeded_stacks(d, grid, shared_first):
    """Three rounds of random POVMs: the first over the grid (or shared),
    the second shared, the third over the grid."""
    rng = np.random.default_rng(300 + d)
    sizes = (3, 2, 2) if d < 4 else (2, 2, 2)
    shapes = (1 if shared_first else grid, 1, grid)
    return [random_povm_stack(rng, g, d=d, n_elements=k) for g, k in zip(shapes, sizes)]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("shared_first", [False, True])
def test_stacked_chain_negativities_equals_matmul_expansion(d, shared_first):
    stacks = seeded_stacks(d, 3, shared_first)
    got = stacked_chain_negativities(d, stacks)
    (x1, w1), _, (x3, w3) = matmul_expansion(d, stacks)
    neg1 = swapforge.engine._stacked_negativity(swapforge.engine._stacked_rho14(x1), d)
    neg3 = swapforge.engine._stacked_negativity(swapforge.engine._stacked_rho14(x3), d)
    expected = (
        swapforge.engine._checked_average(w1, neg1),
        swapforge.engine._checked_average(w3, neg3),
        np.where(w3 > 0.0, neg3, -np.inf).max(axis=-1),
    )
    for column, want in zip(got, expected):
        assert np.array_equal(column, want)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_rounds", [1, 2, 3])
def test_stacked_branches_equals_matmul_expansion(d, n_rounds):
    stacks = seeded_stacks(d, 1, False)[:n_rounds]
    got = stacked_branches(SwapScenario(d, [Povm(s[0], d) for s in stacks]))
    x, weight = matmul_expansion(d, stacks)[-1]
    kept = np.flatnonzero(weight[0] > 0.0)
    x = x[0, kept]
    x12 = x.reshape(-1, d, d, d, d).transpose(0, 3, 1, 2, 4).reshape(x.shape)
    assert np.array_equal(got.probability, weight[0, kept])
    rho = swapforge.engine._stacked_rho14(x)
    assert np.array_equal(got.negativity14, swapforge.engine._stacked_negativity(rho, d))
    assert np.array_equal(got.c14vs23, _gram_concurrence(rho, x))
    assert np.array_equal(got.c12vs34, _gram_concurrence(x12 @ x12.conj().swapaxes(-1, -2), x12))


# ---------------------------------------------------------------------------
# A corrupted swept round still fails: the engine checks every element.
# ---------------------------------------------------------------------------

# the CLI's error_code for each corruption
SWEEP_ERROR_CODES = {
    "non-hermitian": "ValidationFailure",
    "non-psd": "NotPsd",
    "incomplete": "InvalidPovm",
    "nan": "ValidationFailure",
}


def break_eigenvalues(w, how):
    """Break the POVM of one (K, D) row of eigenvalues in place."""
    if how == "non-psd":
        w[0] -= 1.0  # still complete and ascending, no longer PSD
        w[1] += 1.0
    elif how == "incomplete":
        w *= 1.01
    else:
        w[0, 0] = np.nan


def patch_swept_spectrum(monkeypatch, fix):
    """Replace noisy_bell's spectrum by the closed form with
    ``fix(values, w, v)`` applied in place to each chunk's eigenvalues w
    and to a writable copy of its shared (1, K, D, D) table v."""
    real = swapforge.families.noisy_bell_spectrum

    def spectrum(values):
        w, v = real(values)
        v = v.copy()
        fix(values, w, v)
        return w, v

    noisy_bell = dataclasses.replace(swapforge.families.FAMILIES["noisy_bell"], spectrum=spectrum)
    monkeypatch.setitem(swapforge.families.FAMILIES, "noisy_bell", noisy_bell)


def corrupt_sweep(monkeypatch, how, at):
    """Make the noisy_bell lambda spectrum break the POVM at the grid
    value ``at``, and cut the sweep into blocks of 16 points (256 // 16
    eigenvalues) checked one at a time, and chunks of two.  A spectrum
    has no Hermiticity of its own: "non-hermitian" makes an eigenvector of
    the table every value shares stray from the orthonormal basis, so the
    sweep fails at its first point whatever ``at`` is."""

    def fix(values, w, v):
        if how == "non-hermitian":
            v[0, 1, 0, 1] += 1e-6
        else:
            for g in np.flatnonzero(values == at):
                break_eigenvalues(w[g], how)

    patch_swept_spectrum(monkeypatch, fix)
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 2 * 8 * 16)


@pytest.mark.parametrize("at", [0.0, 0.625])  # the first point, grid index 20 in the second block
@pytest.mark.parametrize("how,error", CORRUPTIONS)
def test_corrupted_swept_stack_raises_through_sweep_rows(monkeypatch, how, error, at):
    config = sweep_config([RoundSpec("noisy_bell"), RoundSpec("wire2_computational")], steps=33)
    sweep_rows(config)
    corrupt_sweep(monkeypatch, how, at)
    with pytest.raises(error):
        sweep_rows(config)


@pytest.mark.parametrize("how", sorted(SWEEP_ERROR_CODES))
def test_cli_sweep_on_a_corrupted_swept_stack_exits_two(tmp_path, capsys, monkeypatch, how):
    doc = {
        "rounds": [{"family": "noisy_bell"}, {"family": "wire2_computational"}],
        "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 33},
        "outputs": {"csv_path": "sweep.csv"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    corrupt_sweep(monkeypatch, how, 0.625)  # in the second block
    assert main(["sweep", str(path)]) == 2
    assert f"error_code={SWEEP_ERROR_CODES[how]}\n" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_on_tables_that_do_not_fit_exits_two(tmp_path, capsys, monkeypatch):
    # a family spectrum handing over two tables for the eigenvalues of
    # one block, here all five points
    def spectrum(values):
        w, v = swapforge.families.noisy_bell_spectrum(values)
        return w, np.concatenate([v, v])

    noisy_bell = dataclasses.replace(swapforge.families.FAMILIES["noisy_bell"], spectrum=spectrum)
    monkeypatch.setitem(swapforge.families.FAMILIES, "noisy_bell", noisy_bell)
    doc = {
        "rounds": [{"family": "noisy_bell"}],
        "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 5},
        "outputs": {"csv_path": "sweep.csv"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error_code=ShapeMismatch\n" in err and "(5, 4, 4) and (2, 4, 4, 4)" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "w_shape, v_shape",
    [
        ((3, 4, 4), (2, 4, 4, 4)),  # more points than tables, but not one table
        ((1, 4, 4), (3, 4, 4, 4)),  # more tables than points
        ((3, 4, 4), (3, 4, 4)),  # tables without the grid axis
        ((3, 2, 4), (1, 4, 4, 4)),  # eigenvalues of two elements, tables of four
    ],
)
def test_expand_names_both_shapes_of_a_spectrum_that_does_not_fit(w_shape, v_shape):
    w, v = np.full(w_shape, 0.25), np.broadcast_to(np.eye(4), v_shape)
    with pytest.raises(ShapeMismatch, match=re.escape(f"shapes {w_shape} and {v_shape} does not fit")):
        next(swapforge.engine._expand(2, [(w, v)], 1e-12))


def test_bad_first_swept_point_fails_before_the_other_rounds_are_built(monkeypatch):
    # the file round does not exist: building it would raise OSError
    config = sweep_config([RoundSpec("noisy_bell"), RoundSpec("file", {"path": "missing.json"})])
    corrupt_sweep(monkeypatch, "non-psd", 0.0)
    with pytest.raises(NotPsd):
        sweep_rows(config)


# ---------------------------------------------------------------------------
# The columnar CSV writer.
# ---------------------------------------------------------------------------


def test_columnar_csv_equals_per_value_format(tmp_path, monkeypatch):
    # three write blocks and one row more, cycling through the special values
    values = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e16]
    values += [0.1, 1 / 3, -2.5e-8, 5e-324, 0.0, 1.0]
    count = 3 * (swapforge.experiment.STACK_ENTRIES // 6) + 1
    columns = tuple(np.resize(values[k:] + values[:k], count) for k in range(6))
    monkeypatch.setattr(swapforge.experiment, "_sweep_columns", lambda config: columns)
    config = sweep_config([RoundSpec("noisy_bell")])
    assert run_sweep(config, csv_path=str(tmp_path / "out.csv")) == count
    expected = ",".join(CSV_COLUMNS) + "\n" + "".join(
        ",".join(format(x, ".15g") for x in row) + "\n" for row in zip(*columns)
    )
    assert (tmp_path / "out.csv").read_text() == expected
    assert [list(map(repr, tuple(row))) for row in sweep_rows(config)] == [
        list(map(repr, row)) for row in zip(*(c.tolist() for c in columns))
    ]
    header = "param_value,avg_neg_round1,avg_neg_round2,paper_formula_round1,paper_formula_round2"
    assert ",".join(CSV_COLUMNS) == header + ",max_branch_negativity"  # SweepRow's field order


def test_a_sweep_that_raises_writes_nothing(tmp_path, monkeypatch):
    # lambda = 1.0005 is grid index 2001, in the second block of 1024 points:
    # the first block's negativities are computed before the sweep raises
    computed = []
    real = swapforge.experiment._chain_negativities

    def spy(*args):
        computed.append(1)
        return real(*args)

    monkeypatch.setattr(swapforge.experiment, "_chain_negativities", spy)
    rounds = (RoundSpec("noisy_bell"), RoundSpec("wire2_computational"))
    config = ScenarioConfig(2, rounds, sweep=SweepSpec("lambda", 0.0, 1.5, 3001))
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"old\n")
    for path in (old, new):
        with pytest.raises(BadParameter, match=re.escape("lambda must lie in [0, 1], got 1.0005")):
            run_sweep(config, csv_path=str(path))
    assert computed
    assert old.read_bytes() == b"old\n"
    assert not new.exists()


def test_run_sweep_peak_memory_grows_by_at_most_100_bytes_a_point(tmp_path):
    # the six float64 columns take 48; no per-row object or whole-CSV string
    rounds = [RoundSpec("noisy_bell"), RoundSpec("wire2_computational")]
    csv = str(tmp_path / "sweep.csv")
    run_sweep(sweep_config(rounds, 3), csv_path=csv)  # fill the caches a first sweep fills
    peaks = []
    for steps in (2001, 20001):
        config = sweep_config(rounds, steps)
        tracemalloc.start()
        try:
            run_sweep(config, csv_path=csv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (20001 - 2001) <= 100


# ---------------------------------------------------------------------------
# In-place writes: the engine squares, normalizes and floors in place only
# the arrays it allocated.
# ---------------------------------------------------------------------------


def test_stacked_calls_leave_the_caller_stacks_unchanged(rng):
    stacks = seeded_stacks(2, 5, shared_first=False)
    rec = first_branch(random_element(rng, d=2, rank=3))
    povms = random_povm_stack(rng, 6, d=2)
    given = [s.copy() for s in (*stacks, povms)]
    stacked_chain_negativities(2, stacks)
    stacked_disturbance(rec, povms)
    for stack, copy in zip((*stacks, povms), given):
        assert stack.flags.writeable
        assert stack.tobytes() == copy.tobytes()


def test_povm_arrays_stay_read_only_and_unchanged(tmp_path, monkeypatch):
    # (povm, copies of its matrices and floored spectrum) of every round built
    built = []
    real = ScenarioConfig.build_round

    def spy(self, index):
        povm = real(self, index)
        built.append((povm, [a.copy() for a in (povm.matrices, *povm.floored_spectrum)]))
        return povm

    monkeypatch.setattr(ScenarioConfig, "build_round", spy)
    rng = np.random.default_rng(5000)
    povms = [random_povm(rng, d=2, n_elements=k) for k in (3, 2)]
    run_scenario(scenario_config(tmp_path, povms))
    rounds = [RoundSpec("wire2_computational"), RoundSpec("noisy_bell")]
    run_sweep(sweep_config(rounds), csv_path=str(tmp_path / "sweep.csv"))
    assert len(built) == 3  # two file rounds, the sweep's shared round
    for povm, copies in built:
        for array, copy in zip((povm.matrices, *povm.floored_spectrum), copies):
            assert not array.flags.writeable
            assert array.tobytes() == copy.tobytes()


# ---------------------------------------------------------------------------
# The field rule: a round whose eigenvectors are exactly real runs in
# float64, one complex entry makes x complex, and both fields match chain.
# ---------------------------------------------------------------------------


def expanded_stacks(d, stacks):
    """x after each round of _expand on the checked stacks."""
    spectra = [check_povm_stack(s) for s in stacks]
    return [x for x, _ in swapforge.engine._expand(d, spectra, 1e-12)]


def expanded_dtypes(d, stacks):
    return [x.dtype for x in expanded_stacks(d, stacks)]


def real_povm_stack(rng, count, d, k):
    """The real parts of random POVMs: Re E = (E + conj E)/2 with conj E
    PSD too, so each is still a complete POVM of real elements."""
    return random_povm_stack(rng, count, d=d, n_elements=k).real


def product_unitary(rng, d):
    """A seeded complex U x V on wires (2,3), U and V from QR."""
    u, v = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in "uv")
    return np.kron(u, v)


FIELDS = ("probability", "negativity14", "c14vs23", "c12vs34")


def assert_branches_match_chain(scenario):
    got = stacked_branches(scenario)
    records = chain(scenario, 1e-12)
    assert got.outcome_paths.tolist() == [list(rec.outcome_path) for rec in records]
    for key in FIELDS:
        want = [getattr(rec, key) for rec in records]
        np.testing.assert_allclose(getattr(got, key), want, rtol=0.0, atol=TOL)


def paper_chain_matrices(steps):
    """The paper chain's element stacks: noisy_bell's from the reference
    matrices, one per grid point, then the shared wire2_computational."""
    swept = noisy_bell_matrices(np.linspace(0.0, 1.0, steps))
    return [swept, wire2_computational_povm().matrices[None]]


def test_paper_chain_expands_in_float64():
    stacks = paper_chain_matrices(101)
    assert expanded_dtypes(2, stacks) == [np.float64, np.float64]


@pytest.mark.parametrize("shared_first", [False, True])
def test_real_d3_stacks_expand_in_float64(shared_first):
    rng = np.random.default_rng(3100 + shared_first)
    stacks = [real_povm_stack(rng, 1 if shared_first else 4, 3, 3), real_povm_stack(rng, 4, 3, 2)]
    assert expanded_dtypes(3, stacks) == [np.float64, np.float64]
    assert_matches_chain(3, stacks)


def test_one_complex_grid_point_makes_the_chunk_complex():
    stack = noisy_bell_matrices(np.linspace(0.0, 1.0, 5))
    w = product_unitary(np.random.default_rng(3200), 2)
    stack[2] = w @ stack[2] @ w.conj().T
    stacks = [stack, wire2_computational_povm().matrices[None]]
    assert expanded_dtypes(2, stacks) == [np.complex128, np.complex128]
    assert_matches_chain(2, stacks)


@pytest.mark.parametrize("complex_first", [True, False])
def test_a_complex_shared_round_makes_x_complex_from_there_on(complex_first):
    rng = np.random.default_rng(3300 + complex_first)
    swept, shared = noisy_bell_matrices(np.linspace(0.0, 1.0, 4)), random_povm_stack(rng, 1, d=2)
    stacks = [shared, swept] if complex_first else [swept, shared]
    first = np.complex128 if complex_first else np.float64
    assert expanded_dtypes(2, stacks) == [first, np.complex128]
    assert_matches_chain(2, stacks)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_rounds", [1, 2, 3])
def test_real_chain_matches_its_local_unitary_conjugate(d, n_rounds):
    # conjugating every round by U x V moves each branch state by one fixed
    # local unitary on wires 1-4, which no reported number can see
    rng = np.random.default_rng(3400 + 10 * d + n_rounds)
    stacks = [real_povm_stack(rng, 3 if r == 0 else 1, d, 2 + r % 2) for r in range(n_rounds)]
    w = product_unitary(rng, d)
    rotated = [w @ s @ w.conj().T for s in stacks]
    assert expanded_dtypes(d, stacks)[-1] == np.float64
    assert expanded_dtypes(d, rotated)[0] == np.complex128
    for a, b in zip(stacked_chain_negativities(d, stacks), stacked_chain_negativities(d, rotated)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=TOL)
    real, conjugated = (
        stacked_branches(SwapScenario(d, [Povm(s[0], d) for s in ss])) for ss in (stacks, rotated)
    )
    assert np.array_equal(real.outcome_paths, conjugated.outcome_paths)
    for key in FIELDS:
        np.testing.assert_allclose(getattr(real, key), getattr(conjugated, key), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 1.0])
def test_real_paper_chain_matches_chain(lam):
    povms = (noisy_bell_povm(lam), wire2_computational_povm())
    assert expanded_dtypes(2, [p.matrices[None] for p in povms])[-1] == np.float64
    assert_branches_match_chain(SwapScenario(2, povms))
    assert_matches_chain(2, stacks_of([povms]))


@pytest.mark.parametrize(
    "families", [ONE_ROUND, PAPER_PAIR, ("noisy_bell", "file")], ids=",".join
)
def test_run_path_reads_the_sweep_roots_bit_for_bit(tmp_path, families):
    # a run's Povms are built from the closed-form spectra the sweep roots,
    # and a run averages the sweep's full branch row, so the run report's
    # average is the sweep's CSV cell at every point.  The file round holds
    # a zero element, then a seeded two-outcome POVM: 4 of the 12 branches
    # are dropped, and a sum over the 8 kept rows alone rounds otherwise
    two = random_povm(np.random.default_rng(3600), d=2, n_elements=2)
    write_povm(Povm([np.zeros((4, 4)), *two.matrices], local_dim=2), tmp_path / "zero_two.json")
    rest = [RoundSpec(f, {"path": "zero_two.json"} if f == "file" else {}) for f in families[1:]]
    swept = sweep_config([RoundSpec("noisy_bell"), *rest], steps=101)
    rows = sweep_rows(dataclasses.replace(swept, base_dir=str(tmp_path)))
    for row in rows:
        rounds = (RoundSpec("noisy_bell", {"lambda": row.param_value}), *rest)
        config = ScenarioConfig(2, rounds, base_dir=str(tmp_path))
        report = run_scenario(config)
        cell = row.avg_neg_round2 if len(families) == 2 else row.avg_neg_round1
        assert report["average_negativity"] == float("%.15g" % cell), row.param_value
        assert len(report["branches"]) == (8 if "file" in families else 4 * len(families))
        got = stacked_branches(SwapScenario(2, config.build_rounds()))
        assert got.negativity14.max() == row.max_branch_negativity


def test_both_routes_keep_the_same_paths_at_a_quarter():
    # every noisy Bell branch has probability 1/4.  At these lambdas the
    # two routes rounded it to opposite sides of prob_tol on eigh's roots
    # (_expand's tie rule); on the closed-form roots they agree.  Ties
    # elsewhere still fall as the BLAS kernel rounds: under OpenBLAS's
    # Prescott kernel lambda = 0.86 is one
    for lam in (0.477, 0.564, 0.568, 0.596, 0.606, 0.62, 0.673):
        scenario = SwapScenario(2, (noisy_bell_povm(lam),))
        paths = [list(rec.outcome_path) for rec in chain(scenario, 0.25)]
        assert stacked_branches(scenario, 0.25).outcome_paths.tolist() == paths, lam


# ---------------------------------------------------------------------------
# Real products: a real x is multiplied by a copy of itself (BLAS gemm, not
# syrk); the numbers are those of the complex route.
# ---------------------------------------------------------------------------


def complex_rho14(x):
    """rho14 of x taken in complex128, as a complex round's x is."""
    return swapforge.engine._stacked_rho14(x.astype(np.complex128))


def paper_chain_stacks(steps=201):
    return expanded_stacks(2, paper_chain_matrices(steps))


@pytest.mark.parametrize("r", [0, 1])
def test_real_rho14_is_bit_equal_to_the_complex_route_on_the_paper_chain(r):
    x = paper_chain_stacks()[r]
    assert x.dtype == np.float64
    rho = swapforge.engine._stacked_rho14(x)
    assert rho.dtype == np.float64
    want = complex_rho14(x)
    assert not want.imag.any()
    assert np.array_equal(rho, want.real)


@pytest.mark.parametrize("d", [3, 4])
def test_real_rho14_matches_the_complex_route_on_seeded_qudit_stacks(d):
    # not bit for bit: on some kernels a real 9x9 gemm and the complex
    # product round differently in the last digit
    rng = np.random.default_rng(3500 + d)
    stacks = [real_povm_stack(rng, 3, d, 3), real_povm_stack(rng, 1, d, 2)]
    for x in expanded_stacks(d, stacks):
        assert x.dtype == np.float64
        rho = swapforge.engine._stacked_rho14(x)
        assert rho.dtype == np.float64
        np.testing.assert_allclose(rho, complex_rho14(x).real, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("r", [0, 1])
def test_gram_through_rho14_equals_the_direct_product_on_the_paper_chain(r):
    # stacked_branches' 12|34 Gram matrix: x12 x12^dagger per branch
    x = paper_chain_stacks()[r].reshape(-1, 2, 2, 2, 2)
    x12 = x.transpose(0, 3, 1, 2, 4).reshape(-1, 4, 4)
    gram = swapforge.engine._stacked_rho14(np.swapaxes(x12, -1, -2))
    assert gram.dtype == np.float64
    np.testing.assert_array_equal(gram, x12 @ x12.conj().swapaxes(-1, -2))
