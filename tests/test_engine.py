import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.engine import (
    ALL_BRANCHES,
    SelectOutcome,
    SwapScenario,
    apply_element,
    apply_round,
    average_negativity,
    chain,
    disturbance_check,
    initial_state,
    rho12_contraction,
    rho14_from_element,
    rho14_two_round_spectral,
    rho34_contraction,
    second_round_probability,
)
from swapforge.errors import BadDimension, IncompleteBranchSet, InvalidPovm
from swapforge.families import bell_projective, noisy_bell_povm, wire2_computational_povm
from swapforge.measures import CUT_12_34, CUT_14_23, element_swap_state, i_concurrence
from swapforge.sampling import random_element, random_povm, random_rank1_element
from swapforge.states import Povm, PovmElement

from conftest import rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)

BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


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
    records = apply_round(initial_state(2), bell_projective())
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
    records = apply_round(initial_state(2), povm)
    for rec, el in zip(records, povm.elements):
        assert rec.probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(rec.rho14.matrix, el.matrix, atol=1e-12)


@given(seeds)
def test_round_probabilities_close(seed):
    rng = rng_from(seed)
    povm = random_povm(rng, d=2, n_elements=int(rng.integers(2, 6)))
    records = apply_round(initial_state(2), povm)
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-9)
    for rec in records:
        el = povm.elements[rec.outcome_path[0]]
        assert rec.probability == pytest.approx(el.trace / 4.0, abs=1e-9)


@given(seeds)
def test_round_state_matches_spectral_construction(seed):
    rng = rng_from(seed)
    el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
    p, post = apply_element(initial_state(2), el)
    spectral_state = element_swap_state(el)
    # global phase free; compare density matrices
    np.testing.assert_allclose(
        post.density().matrix, spectral_state.density().matrix, atol=1e-10
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


def test_apply_round_skips_zero_probability_branches(caplog):
    povm = Povm.from_matrices([np.eye(4), np.zeros((4, 4))], local_dim=2)
    with caplog.at_level(logging.DEBUG, logger="swapforge.engine"):
        records = apply_round(initial_state(2), povm)
    assert [r.outcome_path for r in records] == [(0,)]
    assert any("skipping" in msg for msg in caplog.messages)


# ---------------------------------------------------------------------------
# first-round reduced states, both paths
# ---------------------------------------------------------------------------


def test_bell_projector_pair_states_maximally_mixed():
    rec = apply_round(initial_state(2), bell_projective())[0]
    rho12, rho34 = rec.rho12, rec.rho34
    np.testing.assert_allclose(rho12.matrix, np.eye(4) / 4, atol=1e-12)
    np.testing.assert_allclose(rho34.matrix, np.eye(4) / 4, atol=1e-12)
    for pair in (rho12, rho34):
        for wire in (0, 1):
            np.testing.assert_allclose(pair.reduced((wire,)).matrix, np.eye(2) / 2, atol=1e-12)


def test_identity_direction_leaves_first_pair_entangled():
    rec = apply_round(initial_state(2), noisy_bell_povm(0.0))[0]
    rho14, rho12 = rec.rho14, rec.rho12
    np.testing.assert_allclose(rho14.matrix, np.eye(4) / 4, atol=1e-12)
    np.testing.assert_allclose(rho12.matrix, np.outer(BELL_PLUS, BELL_PLUS), atol=1e-12)


def test_product_rank1_leaves_pure_pair_states(rng):
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    el = PovmElement(np.kron(np.outer(u, u), np.outer(u, u)))
    povm = Povm.from_matrices([el.matrix, np.eye(4) - el.matrix], local_dim=2)
    rec = apply_round(initial_state(2), povm)[0]
    assert rec.rho12.purity() == pytest.approx(1.0, abs=1e-10)
    assert rec.rho34.purity() == pytest.approx(1.0, abs=1e-10)


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
    rec = apply_round(initial_state(2), noisy_bell_povm(0.7))[0]
    for em in wire2_computational_povm().elements:
        assert second_round_probability(rec, em) == pytest.approx(0.5, abs=1e-12)


def test_second_round_probability_identity_element():
    rec = apply_round(initial_state(2), noisy_bell_povm(0.4))[2]
    assert second_round_probability(rec, PovmElement(np.eye(4))) == pytest.approx(
        1.0, abs=1e-12
    )


@given(seeds)
def test_second_round_probability_matches_born_oracle(seed):
    rng = rng_from(seed)
    rec = apply_round(initial_state(2), random_povm(rng, n_elements=3))[0]
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


def test_one_round_chain_equals_apply_round():
    scenario = SwapScenario(2, (noisy_bell_povm(0.6),), ALL_BRANCHES)
    chained = chain(scenario)
    direct = apply_round(initial_state(2), noisy_bell_povm(0.6))
    assert len(chained) == len(direct)
    for a, b in zip(chained, direct):
        assert a.outcome_path == b.outcome_path
        assert a.probability == pytest.approx(b.probability, abs=1e-14)
        np.testing.assert_allclose(a.rho14.matrix, b.rho14.matrix, atol=1e-14)


@pytest.mark.parametrize("lam", [0.0, 0.4, 0.9, 1.0])
def test_two_round_worked_example_branch(lam):
    scenario = SwapScenario(2, (noisy_bell_povm(lam), wire2_computational_povm()))
    records = chain(scenario)
    assert len(records) == 8
    for rec in records:
        assert rec.round_probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert rec.probability == pytest.approx(1 / 8, abs=1e-12)
        assert rec.rho12 is None and rec.rho34 is None
    first = next(r for r in records if r.outcome_path == (0, 0))
    a = (np.sqrt(1 + 3 * lam) + np.sqrt(1 - lam)) / (2 * np.sqrt(1 + lam))
    b = (np.sqrt(1 + 3 * lam) - np.sqrt(1 - lam)) / (2 * np.sqrt(1 + lam))
    xi = np.array([a, 0, 0, b])
    expected = (1 + lam) / 2 * np.outer(xi, xi)
    expected[1, 1] += (1 - lam) / 2
    np.testing.assert_allclose(first.rho14.matrix, expected, atol=1e-10)


def test_identity_round_chain_keeps_maximally_mixed_outer_pair():
    ident = Povm.from_matrices([np.eye(4)], local_dim=2)
    records = chain(SwapScenario(2, (ident, ident)))
    assert len(records) == 1
    np.testing.assert_allclose(records[0].rho14.matrix, np.eye(4) / 4, atol=1e-12)


def test_select_outcome_policy_follows_single_path():
    scenario = SwapScenario(
        2,
        (noisy_bell_povm(0.5), wire2_computational_povm()),
        SelectOutcome((2, 1)),
    )
    records = chain(scenario)
    assert [r.outcome_path for r in records] == [(2, 1)]


def test_chain_branch_guard():
    povm = noisy_bell_povm(0.5)
    with pytest.raises(InvalidPovm):
        chain(SwapScenario(2, (povm,) * 9))  # 4^9 branches


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_negativity_single_round():
    records = apply_round(initial_state(2), noisy_bell_povm(0.8))
    assert average_negativity(records) == pytest.approx(0.7, abs=1e-12)


def test_average_negativity_two_rounds():
    records = chain(SwapScenario(2, (noisy_bell_povm(0.8), wire2_computational_povm())))
    expected = (0.8 - 1 + np.sqrt(1 - 1.6 + 5 * 0.64)) / 2
    assert average_negativity(records) == pytest.approx(expected, abs=1e-12)


def test_average_negativity_separable_branches_is_zero():
    records = apply_round(initial_state(2), noisy_bell_povm(0.1))
    assert average_negativity(records) == pytest.approx(0.0, abs=1e-12)


def test_average_negativity_rejects_incomplete_set():
    records = apply_round(initial_state(2), noisy_bell_povm(0.8))
    with pytest.raises(IncompleteBranchSet):
        average_negativity(records[:2])


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
    povm = Povm(elements=(el, PovmElement(np.eye(4) - el.matrix)), local_dim=2)
    rec = apply_round(initial_state(2), povm)[0]
    report = disturbance_check(rec, random_povm(rng, n_elements=3))
    assert report.max_trace_distance <= 1e-10
    assert report.max_negativity_change <= 1e-10


def test_noisy_bell_branch_is_disturbed_by_separable_second_round():
    rec = apply_round(initial_state(2), noisy_bell_povm(0.2))[0]
    report = disturbance_check(rec, wire2_computational_povm())
    expected = (0.2 - 1 + np.sqrt(1 - 0.4 + 0.2)) / 2
    assert report.max_negativity_change == pytest.approx(expected, abs=1e-10)
    assert report.max_trace_distance > 0.01


def test_trivial_povm_never_disturbs():
    rec = apply_round(initial_state(2), noisy_bell_povm(0.2))[0]
    report = disturbance_check(rec, Povm.from_matrices([np.eye(4)], local_dim=2))
    assert report.max_trace_distance <= 1e-12
    assert report.max_negativity_change <= 1e-12
