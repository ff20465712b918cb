import copy
import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import swapforge.engine
from swapforge.engine import (
    OutcomeRecord,
    SwapScenario,
    _records,
    apply_element,
    average_negativity,
    chain,
    disturbance_check,
    initial_state,
    rho14_from_element,
    rho14_two_round_spectral,
    second_round_probability,
)
from swapforge.config import load_scenario_config
from swapforge.errors import BadDimension, IncompleteBranchSet, InternalCheckError, InvalidPovm
from swapforge.experiment import _report_text, run_scenario
from swapforge.families import bell_projective, noisy_bell_povm, wire2_computational_povm
from swapforge.measures import CUT_12_34, CUT_14_23, i_concurrence, negativity
from swapforge.sampling import random_element, random_povm, random_rank1_element
from swapforge.states import DensityMatrix, Povm, PovmElement, write_povm

from conftest import element_swap_state, rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def one_round(povm):
    return chain(SwapScenario(povm.local_dim, (povm,)))


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------


def test_initial_state_d2_amplitudes():
    psi = initial_state(2)
    expected = np.zeros(16)
    # wire order (1,2,3,4): support on |0000>, |0011>, |1100>, |1111>
    for idx in (0b0000, 0b0011, 0b1100, 0b1111):
        expected[idx] = 0.5
    np.testing.assert_allclose(psi.amplitudes, expected)


def test_initial_state_cut_concurrences():
    psi = initial_state(2)
    assert i_concurrence(psi, CUT_12_34) == pytest.approx(0.0, abs=1e-12)
    assert i_concurrence(psi, CUT_14_23) == pytest.approx(1.0, abs=1e-12)
    assert i_concurrence(initial_state(3), CUT_14_23) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_rejects_bad_dimension():
    with pytest.raises(BadDimension):
        initial_state(1)


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


def test_bell_projective_round_swaps():
    records = one_round(bell_projective())
    assert len(records) == 4
    for rec in records:
        assert rec.probability == pytest.approx(0.25, abs=1e-12)
        # each outer-pair state is maximally entangled (negativity 1 in the
        # convention where a Bell pair scores 1)
        assert rec.negativity14 == pytest.approx(1.0, abs=1e-10)
        assert abs(np.linalg.eigvalsh(rec.rho14.matrix)[-1] - 1.0) < 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.8])
def test_noisy_bell_round_probabilities_and_states(lam):
    povm = noisy_bell_povm(lam)
    records = one_round(povm)
    for rec, el in zip(records, povm.elements):
        assert rec.probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(rec.rho14.matrix, el.matrix, atol=1e-12)


@given(seeds)
def test_round_probabilities_close(seed):
    rng = rng_from(seed)
    povm = random_povm(rng, d=2, n_elements=int(rng.integers(2, 6)))
    records = one_round(povm)
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-9)
    for rec in records:
        el = povm.elements[rec.outcome_path[0]]
        assert rec.probability == pytest.approx(el.trace / 4.0, abs=1e-9)


def density(amplitudes):
    return np.outer(amplitudes, amplitudes.conj())


@given(seeds)
def test_round_state_matches_spectral_construction(seed):
    rng = rng_from(seed)
    el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
    p, post = apply_element(initial_state(2), el)
    spectral_state = element_swap_state(el)
    # global phase free; compare density matrices
    np.testing.assert_allclose(
        density(post.amplitudes), density(spectral_state.amplitudes), atol=1e-10
    )
    assert np.vdot(post.amplitudes, post.amplitudes).real == pytest.approx(1.0, abs=1e-10)


@given(seeds)
def test_eigenbasis_orthogonality_contraction(seed):
    # sum_ij conj(a_beta[i,j]) a_alpha[i,j] = delta_ab for each element basis
    rng = rng_from(seed)
    el = random_element(rng, d=2)
    a = el.basis_tensor()
    gram = np.einsum("bij,aij->ba", a.conj(), a)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_chain_skips_zero_probability_branches(caplog):
    povm = Povm([np.eye(4), np.zeros((4, 4))], local_dim=2)
    with caplog.at_level(logging.DEBUG, logger="swapforge.engine"):
        records = one_round(povm)
    assert [r.outcome_path for r in records] == [(0,)]
    assert any("skipping" in msg for msg in caplog.messages)


@pytest.mark.parametrize("d, shape", [(2, (3,)), (2, (2, 3)), (3, (2, 2))])
def test_record_values_are_their_formulas_on_the_full_state(d, shape):
    rng = np.random.default_rng(17 * d + len(shape))
    records = chain(SwapScenario(d, [random_povm(rng, d=d, n_elements=k) for k in shape]))
    for rec in records:
        rho = rec.full_state.reduced((0, 3))
        assert np.array_equal(rec.rho14.matrix, rho.matrix)
        assert rec.negativity14 == negativity(rho)
        assert rec.c14vs23 == i_concurrence(rec.full_state, CUT_14_23)
        assert rec.c12vs34 == i_concurrence(rec.full_state, CUT_12_34)


def test_record_values_are_computed_on_first_read_only(monkeypatch):
    calls = []

    def spy(psi, cut):
        calls.append(cut)
        return i_concurrence(psi, cut)

    monkeypatch.setattr(swapforge.engine, "i_concurrence", spy)
    rng = np.random.default_rng(23)
    records = chain(SwapScenario(2, [random_povm(rng, n_elements=3), random_povm(rng)]))
    assert sum(rec.probability for rec in records) == pytest.approx(1.0)
    assert calls == []
    first = records[0].c14vs23
    assert records[0].c14vs23 == first and records[0].c12vs34 >= 0.0
    assert calls == [CUT_14_23, CUT_12_34]


def test_chain_records_compute_values_hidden_on_the_base_class(monkeypatch):
    # perfbench's tracer puts a descriptor reading only eagerly set values
    # on OutcomeRecord's concurrence attributes; chain's records still compute
    class Unset:
        def __get__(self, obj, owner=None):
            raise AssertionError("read through the patched base-class attribute")

        def __set__(self, obj, value):
            raise AssertionError("set through the patched base-class attribute")

    records = one_round(bell_projective())
    for name in ("c14vs23", "c12vs34"):
        monkeypatch.setattr(OutcomeRecord, name, Unset())
    psi = records[0].full_state
    assert isinstance(records[0], OutcomeRecord)
    assert records[0].c14vs23 == i_concurrence(psi, CUT_14_23)
    assert records[0].c12vs34 == i_concurrence(psi, CUT_12_34)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lone_element_branch_is_chains_record_bit_for_bit(d, rank):
    # verify and the tests take one element's branch as _records of that
    # element alone; chain reaches it by completing the element to a POVM
    el = random_element(np.random.default_rng(10 * d + rank), d=d, rank=rank)
    rec = _records(initial_state(d), [(el,)])[0]
    ref = one_round(Povm([el.matrix, np.eye(d * d) - el.matrix], local_dim=d))[0]
    assert (rec.outcome_path, rec.probability) == (ref.outcome_path, ref.probability)
    assert np.array_equal(rec.full_state.amplitudes, ref.full_state.amplitudes)
    assert np.array_equal(rec.rho14.matrix, ref.rho14.matrix)
    for name in ("negativity14", "c14vs23", "c12vs34"):
        assert getattr(rec, name) == getattr(ref, name), name


# ---------------------------------------------------------------------------
# first-round reduced states, both paths
# ---------------------------------------------------------------------------


def test_bell_projector_pair_states_maximally_mixed():
    rec = one_round(bell_projective())[0]
    rho12, rho34 = rec.full_state.reduced((0, 1)), rec.full_state.reduced((2, 3))
    np.testing.assert_allclose(rho12.matrix, np.eye(4) / 4, atol=1e-12)
    np.testing.assert_allclose(rho34.matrix, np.eye(4) / 4, atol=1e-12)
    for pair in (rho12, rho34):
        for wire in (0, 1):
            np.testing.assert_allclose(pair.reduced((wire,)).matrix, np.eye(2) / 2, atol=1e-12)


def test_identity_direction_leaves_first_pair_entangled():
    rec = one_round(noisy_bell_povm(0.0))[0]
    rho14, rho12 = rec.rho14, rec.full_state.reduced((0, 1))
    np.testing.assert_allclose(rho14.matrix, np.eye(4) / 4, atol=1e-12)
    np.testing.assert_allclose(rho12.matrix, np.outer(BELL_PLUS, BELL_PLUS), atol=1e-12)


def test_product_rank1_leaves_pure_pair_states(rng):
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    el = PovmElement(np.kron(np.outer(u, u), np.outer(u, u)))
    povm = Povm([el.matrix, np.eye(4) - el.matrix], local_dim=2)
    rec = one_round(povm)[0]
    for pair in ((0, 1), (2, 3)):
        m = rec.full_state.reduced(pair).matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-10)  # purity


def state_tensor(el):
    """Unnormalized branch amplitudes T[w1, w4, w2, w3] from the element's
    spectral data: sum_k sqrt(pi_k) conj(A_k)[w1, w4] A_k[w2, w3]."""
    a = el.basis_tensor()
    return np.einsum("a,aij,akl->ijkl", np.sqrt(el.spectral[0]), a.conj(), a)


def rho12_contraction(el):
    """(1,2)-pair state of the element's branch by explicit index
    contraction, independent of partial traces."""
    t = state_tensor(el)
    d = el.local_dim
    rho = np.einsum("ijkl,pjql->ikpq", t, t.conj()).reshape(d * d, d * d) / el.trace
    return DensityMatrix(rho, (d, d))


def rho34_contraction(el):
    """(3,4)-pair state of the element's branch by explicit index
    contraction; wire 3 indexes first."""
    t = state_tensor(el)
    d = el.local_dim
    rho = np.einsum("ijkl,iJkL->ljLJ", t, t.conj()).reshape(d * d, d * d) / el.trace
    return DensityMatrix(rho, (d, d))


@given(seeds)
def test_pair_states_match_contraction_paths(seed):
    rng = rng_from(seed)
    el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
    p, post = apply_element(initial_state(2), el)
    np.testing.assert_allclose(
        post.reduced((0, 1)).matrix, rho12_contraction(el).matrix, atol=1e-10
    )
    np.testing.assert_allclose(
        post.reduced((2, 3)).matrix, rho34_contraction(el).matrix, atol=1e-10
    )
    np.testing.assert_allclose(
        post.reduced((0, 3)).matrix, rho14_from_element(el).matrix, atol=1e-10
    )
    assert post.reduced((0, 1)).matrix.trace().real == pytest.approx(1.0, abs=1e-10)
    assert post.reduced((2, 3)).matrix.trace().real == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# second round
# ---------------------------------------------------------------------------


def test_second_round_probability_worked_example():
    rec = one_round(noisy_bell_povm(0.7))[0]
    for em in wire2_computational_povm().elements:
        assert second_round_probability(rec, em) == pytest.approx(0.5, abs=1e-12)


def test_second_round_probability_identity_element():
    rec = one_round(noisy_bell_povm(0.4))[2]
    assert second_round_probability(rec, PovmElement(np.eye(4))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_second_round_probability_rejects_a_nan_path(monkeypatch):
    # a NaN from the spectral route must not pass the agreement test
    rec = one_round(noisy_bell_povm(0.7))[0]
    monkeypatch.setattr(swapforge.engine, "_overlaps", lambda *els: np.full((4, 4), np.nan))
    with pytest.raises(InternalCheckError, match="spectral=nan"):
        second_round_probability(rec, wire2_computational_povm().elements[0])


@given(seeds)
def test_second_round_probability_matches_born_oracle(seed):
    rng = rng_from(seed)
    rec = one_round(random_povm(rng, n_elements=3))[0]
    em = random_element(rng, rank=int(rng.integers(1, 5)))
    s = second_round_probability(rec, em)
    # brute-force <Phi_n| (E on wires 2,3) |Phi_n>
    full = np.kron(np.eye(2), np.kron(em.matrix, np.eye(2)))
    # operator ordering: build on (w1)(w2 w3)(w4)
    psi = rec.full_state.amplitudes
    assert s == pytest.approx(float(np.vdot(psi, full @ psi).real), abs=1e-10)


@given(seeds)
def test_two_round_spectral_state_matches_partial_trace(seed):
    rng = rng_from(seed)
    first = random_element(rng, rank=int(rng.integers(2, 5)))
    second = random_element(rng, rank=int(rng.integers(1, 5)))
    p1, post1 = apply_element(initial_state(2), first)
    p2, post2 = apply_element(post1, second)
    np.testing.assert_allclose(
        post2.reduced((0, 3)).matrix,
        rho14_two_round_spectral(first, second).matrix,
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.4, 0.9, 1.0])
def test_two_round_worked_example_branch(lam):
    scenario = SwapScenario(2, (noisy_bell_povm(lam), wire2_computational_povm()))
    records = chain(scenario)
    assert len(records) == 8
    for rec in records:
        assert rec.round_probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert rec.probability == pytest.approx(1 / 8, abs=1e-12)
    first = next(r for r in records if r.outcome_path == (0, 0))
    a = (np.sqrt(1 + 3 * lam) + np.sqrt(1 - lam)) / (2 * np.sqrt(1 + lam))
    b = (np.sqrt(1 + 3 * lam) - np.sqrt(1 - lam)) / (2 * np.sqrt(1 + lam))
    xi = np.array([a, 0, 0, b])
    expected = (1 + lam) / 2 * np.outer(xi, xi)
    expected[1, 1] += (1 - lam) / 2
    np.testing.assert_allclose(first.rho14.matrix, expected, atol=1e-10)


def test_identity_round_chain_keeps_maximally_mixed_outer_pair():
    ident = Povm([np.eye(4)], local_dim=2)
    records = chain(SwapScenario(2, (ident, ident)))
    assert len(records) == 1
    np.testing.assert_allclose(records[0].rho14.matrix, np.eye(4) / 4, atol=1e-12)


def test_chain_branch_guard():
    povm = noisy_bell_povm(0.5)
    with pytest.raises(InvalidPovm):
        chain(SwapScenario(2, (povm,) * 9))  # 4^9 branches


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_negativity_single_round():
    records = one_round(noisy_bell_povm(0.8))
    assert average_negativity(records) == pytest.approx(0.7, abs=1e-12)


def test_average_negativity_two_rounds():
    records = chain(SwapScenario(2, (noisy_bell_povm(0.8), wire2_computational_povm())))
    expected = (0.8 - 1 + np.sqrt(1 - 1.6 + 5 * 0.64)) / 2
    assert average_negativity(records) == pytest.approx(expected, abs=1e-12)


def test_average_negativity_separable_branches_is_zero():
    records = one_round(noisy_bell_povm(0.1))
    assert average_negativity(records) == pytest.approx(0.0, abs=1e-12)


def test_average_negativity_rejects_incomplete_set():
    records = one_round(noisy_bell_povm(0.8))
    with pytest.raises(IncompleteBranchSet):
        average_negativity(records[:2])


def test_average_negativity_rejects_a_nan_probability():
    records = one_round(noisy_bell_povm(0.8))
    records[1] = dataclasses.replace(records[1], probability=float("nan"))
    with pytest.raises(IncompleteBranchSet, match="sum to nan"):
        average_negativity(records)


def test_stacked_average_rejects_a_nan_weight():
    weight = np.array([[0.5, 0.5], [0.5, np.nan]])
    with pytest.raises(IncompleteBranchSet, match="sum to nan, expected 1 at grid point 1"):
        swapforge.engine._checked_average(weight, np.zeros_like(weight))


def test_two_round_branch_negativity_nondecreasing_in_lambda():
    grid = [k / 20 for k in range(21)]
    values = []
    for lam in grid:
        records = chain(SwapScenario(2, (noisy_bell_povm(lam), wire2_computational_povm())))
        values.append(records[0].negativity14)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# disturbance
# ---------------------------------------------------------------------------


@given(seeds)
def test_rank1_branches_are_undisturbed(seed):
    rng = rng_from(seed)
    el = random_rank1_element(rng)
    povm = Povm([el.matrix, np.eye(4) - el.matrix], local_dim=2)
    rec = one_round(povm)[0]
    report = disturbance_check(rec, random_povm(rng, n_elements=3))
    assert report.max_trace_distance <= 1e-10
    assert report.max_negativity_change <= 1e-10


def test_noisy_bell_branch_is_disturbed_by_separable_second_round():
    rec = one_round(noisy_bell_povm(0.2))[0]
    report = disturbance_check(rec, wire2_computational_povm())
    expected = (0.2 - 1 + np.sqrt(1 - 0.4 + 0.2)) / 2
    assert report.max_negativity_change == pytest.approx(expected, abs=1e-10)
    assert report.max_trace_distance > 0.01


def test_trivial_povm_never_disturbs():
    rec = one_round(noisy_bell_povm(0.2))[0]
    report = disturbance_check(rec, Povm([np.eye(4)], local_dim=2))
    assert report.max_trace_distance <= 1e-12
    assert report.max_negativity_change <= 1e-12


# ---------------------------------------------------------------------------
# run_scenario's templated report text against json.dumps(indent=2)
# ---------------------------------------------------------------------------

SEPARABLE_PRODUCT_ROUND = {
    "family": "separable_product",
    "params": {
        "elements": [
            {
                "a": {"theta": 0.3, "phi": 0.1, "tau1": 1.0, "tau2": 0.0},
                "b": {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 1.0},
            },
            {
                "a": {"theta": 0.3, "phi": 0.1, "tau1": 0.0, "tau2": 1.0},
                "b": {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 1.0},
            },
        ]
    },
}

FAMILY_ROUNDS = [
    {"family": "noisy_bell", "params": {"lambda": 0.2}},
    {"family": "bell_projective"},
    {"family": "wire2_computational"},
    SEPARABLE_PRODUCT_ROUND,
    {"family": "file", "params": {"path": "povm.json"}},
]


def scenario_report(tmp_path, local_dim, rounds):
    """run_scenario's report, checked against the bytes it wrote."""
    doc = {"local_dim": local_dim, "rounds": rounds, "outputs": {"report_path": "report.json"}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    report = run_scenario(load_scenario_config(str(path)))
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == _report_text(report) + "\n"
    return report


@pytest.mark.parametrize("first", FAMILY_ROUNDS, ids=lambda r: r["family"])
def test_report_text_is_json_dumps_for_every_family(tmp_path, first):
    write_povm(random_povm(np.random.default_rng(17), d=2, n_elements=3), tmp_path / "povm.json")
    rounds = [first, {"family": "noisy_bell", "params": {"lambda": 0.7}}]
    report = scenario_report(tmp_path, 2, rounds)
    assert _report_text(report) == json.dumps(report, indent=2)


def test_report_text_is_json_dumps_for_qutrit_files(tmp_path):
    rng = np.random.default_rng(18)
    for r in range(2):
        write_povm(random_povm(rng, d=3, n_elements=3), tmp_path / f"povm{r}.json")
    rounds = [{"family": "file", "params": {"path": f"povm{r}.json"}} for r in range(2)]
    report = scenario_report(tmp_path, 3, rounds)
    assert _report_text(report) == json.dumps(report, indent=2)


def test_report_text_is_json_dumps_for_hand_built_reports(tmp_path):
    base = scenario_report(tmp_path, 2, [{"family": "noisy_bell", "params": {"lambda": 0.9}}])
    odd = copy.deepcopy(base)
    odd["rounds"][0]["params"] = {
        "branches": [{"branches": "\u03bb \u00e9"}],
        "\u03bb": float("nan"),
        "\n}": "\n}",
    }
    odd["rounds"].append({"family": "bell_projective", "params": {}})
    branch = odd["branches"][0]
    branch["probability"] = float("nan")
    branch["negativity14"] = float("inf")
    branch["c14vs23"] = float("-inf")
    branch["c12vs34"] = 1e-300
    odd["average_negativity"] = float("-inf")
    empty = dict(copy.deepcopy(base), branches=[], average_negativity=float("nan"))
    for report in (base, odd, empty):
        assert _report_text(report) == json.dumps(report, indent=2)
