import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.engine import SwapScenario, chain
from swapforge.errors import BadParameter, IncompletePovm, ZeroTrace
from swapforge.families import (
    BELL_STATES,
    SingleQubitElementParams,
    bell_projective,
    build_family,
    noisy_bell_povm,
    noisy_bell_stack,
    separable_product_povm,
    single_qubit_element,
    single_qubit_residual_concurrence,
    wire2_computational_povm,
)
from swapforge.linalg import matrix_rank, psd_sqrt
from swapforge.measures import CUT_1_2, c12_vs_34, c14_vs_23, i_concurrence
from swapforge.states import PureState, max_entangled_state

from conftest import rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# noisy Bell family
# ---------------------------------------------------------------------------


def test_noisy_bell_extremes():
    flat = noisy_bell_povm(0.0)
    for el in flat.elements:
        np.testing.assert_allclose(el.matrix, np.eye(4) / 4, atol=1e-15)
    sharp = noisy_bell_povm(1.0)
    for el, bell in zip(sharp.elements, BELL_STATES):
        np.testing.assert_allclose(el.matrix, np.outer(bell, bell.conj()), atol=1e-15)


def test_noisy_bell_midpoint_eigenvalues():
    w, _ = noisy_bell_povm(0.5).elements[0].spectral
    np.testing.assert_allclose(w, [0.625, 0.125, 0.125, 0.125], atol=1e-14)


def test_noisy_bell_completeness_tight():
    for lam in (0.0, 0.25, 2 / 3, 1.0):
        total = sum(el.matrix for el in noisy_bell_povm(lam).elements)
        assert np.abs(total - np.eye(4)).max() < 1e-12


def test_noisy_bell_rejects_out_of_range():
    for lam in (-0.1, 1.1):
        with pytest.raises(BadParameter):
            noisy_bell_povm(lam)


def test_noisy_bell_stack_is_the_per_point_povm_bit_for_bit():
    grid = np.linspace(0.0, 1.0, 1001)
    per_point = np.stack([[el.matrix for el in noisy_bell_povm(lam).elements] for lam in grid])
    stack = noisy_bell_stack(grid)
    assert stack.shape == (1001, 4, 4, 4)
    assert np.array_equal(stack, per_point)


@pytest.mark.parametrize(
    "lams, named",
    [
        ([0.2, np.nan, 0.5, 1.5], "nan"),
        ([0.0, 1.0, 1.0 + 1e-12, np.nan], repr(1.0 + 1e-12)),
        ([0.5, -0.25], "-0.25"),
    ],
)
def test_noisy_bell_stack_names_the_first_bad_lambda(lams, named):
    with pytest.raises(BadParameter, match=rf"^lambda must lie in \[0, 1\], got {re.escape(named)}$"):
        noisy_bell_stack(np.array(lams))


def test_sweep_in_uneven_chunks_matches_per_point_chain(monkeypatch):
    import swapforge.experiment
    from swapforge.config import RoundSpec, ScenarioConfig, SweepSpec

    from test_stacked_engine import TOL, reference

    # 3 grid points per chunk (2 * 4 branches of 16 entries), 13 points
    monkeypatch.setattr(swapforge.experiment, "STACK_ENTRIES", 3 * 8 * 16)
    config = ScenarioConfig(
        local_dim=2,
        rounds=(RoundSpec("wire2_computational"), RoundSpec("noisy_bell")),
        sweep=SweepSpec(param_name="lambda", start=0.1, stop=0.9, steps=13),
    )
    rows = swapforge.experiment.sweep_rows(config)
    assert [row.param_value for row in rows] == np.linspace(0.1, 0.9, 13).tolist()
    first = wire2_computational_povm()
    for row in rows:
        ref = reference(2, (first, noisy_bell_povm(row.param_value)))
        got = (row.avg_neg_round1, row.avg_neg_round2, row.max_branch_negativity)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= TOL


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_noisy_bell_bipartition_closed_forms(lam):
    for el in noisy_bell_povm(lam).elements:
        assert c14_vs_23(el) == pytest.approx(np.sqrt(1 - lam**2), abs=1e-10)
        root = np.sqrt(1 - lam) * np.sqrt(1 + 3 * lam)
        expected = np.sqrt(1 + lam**2 - root + lam * root) / np.sqrt(2)
        assert c12_vs_34(el) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Bell projective and wire-2 computational
# ---------------------------------------------------------------------------


def test_bell_projective_structure():
    povm = bell_projective()
    np.testing.assert_allclose(sum(el.matrix for el in povm.elements), np.eye(4), atol=1e-14)
    assert all(matrix_rank(el.matrix) == 1 for el in povm.elements)


def test_bell_projective_swaps_maximal_entanglement():
    records = chain(SwapScenario(2, (bell_projective(),)))
    for rec in records:
        assert rec.negativity14 == pytest.approx(1.0, abs=1e-10)


def test_wire2_computational_structure():
    povm = wire2_computational_povm()
    e1, e2 = (el.matrix for el in povm.elements)
    np.testing.assert_allclose(e1, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(e2, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(e1 + e2, np.eye(4), atol=1e-15)
    assert all(matrix_rank(el.matrix) == 2 for el in povm.elements)


def test_wire2_computational_leaves_wire3_untouched():
    records = chain(SwapScenario(2, (wire2_computational_povm(),)))
    for rec in records:
        np.testing.assert_allclose(
            rec.full_state.reduced((2,)).matrix, np.eye(2) / 2, atol=1e-12
        )


# ---------------------------------------------------------------------------
# separable product family
# ---------------------------------------------------------------------------


def _params(theta, phi, tau1, tau2):
    return SingleQubitElementParams(theta=theta, phi=phi, tau1=tau1, tau2=tau2)


def test_separable_product_reproduces_wire2_computational():
    proj0 = _params(0.0, 0.0, 1.0, 0.0)  # |0><0|
    proj1 = _params(0.0, 0.0, 0.0, 1.0)  # |1><1|
    full = _params(0.0, 0.0, 1.0, 1.0)  # identity
    povm = separable_product_povm([(proj0, full), (proj1, full)])
    reference = wire2_computational_povm()
    for a, b in zip(povm.elements, reference.elements):
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)


def test_separable_product_balanced_weights_close():
    half = _params(0.4, 1.2, 0.5, 0.5)  # I/2 regardless of angles
    full = _params(2.0, 0.3, 1.0, 1.0)
    povm = separable_product_povm([(half, full), (half, full)])
    for el in povm.elements:
        np.testing.assert_allclose(el.matrix, np.eye(4) / 2, atol=1e-14)


@given(seeds)
def test_separable_product_random_rank2_closure(seed):
    rng = rng_from(seed)
    ta = rng.uniform(0.1, 0.9, size=2)
    tb = rng.uniform(0.1, 0.9, size=2)
    aa, ab = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    ba, bb = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    a1 = _params(aa, ab, ta[0], ta[1])
    a2 = _params(aa, ab, 1 - ta[0], 1 - ta[1])
    b1 = _params(ba, bb, tb[0], tb[1])
    b2 = _params(ba, bb, 1 - tb[0], 1 - tb[1])
    povm = separable_product_povm([(a1, b1), (a1, b2), (a2, b1), (a2, b2)])
    total = sum(el.matrix for el in povm.elements)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_separable_product_rejects_open_closure():
    nearly = _params(0.0, 0.0, 0.5, 0.5)
    with pytest.raises(IncompletePovm):
        separable_product_povm([(nearly, nearly)])


# ---------------------------------------------------------------------------
# residual concurrence of a single-qubit factor
# ---------------------------------------------------------------------------


def test_residual_concurrence_known_values():
    assert single_qubit_residual_concurrence(_params(0.3, 0.7, 0.4, 0.4)) == pytest.approx(1.0)
    assert single_qubit_residual_concurrence(_params(0.3, 0.7, 0.8, 0.0)) == pytest.approx(0.0)
    assert single_qubit_residual_concurrence(_params(1.2, 0.1, 0.9, 0.1)) == pytest.approx(0.6)
    with pytest.raises(ZeroTrace):
        single_qubit_residual_concurrence(_params(0.0, 0.0, 0.0, 0.0))


@given(seeds)
def test_residual_concurrence_matches_state_oracle(seed):
    rng = rng_from(seed)
    params = _params(
        rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
        rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
    )
    root = psd_sqrt(single_qubit_element(params))
    amp = np.kron(np.eye(2), root) @ max_entangled_state(2).amplitudes
    amp /= np.linalg.norm(amp)
    oracle = i_concurrence(PureState(amp, (2, 2)), CUT_1_2)
    assert single_qubit_residual_concurrence(params) == pytest.approx(oracle, abs=1e-10)


@given(seeds)
def test_residual_concurrence_angle_invariant(seed):
    rng = rng_from(seed)
    tau1, tau2 = rng.uniform(0.05, 1.0, size=2)
    values = {
        single_qubit_residual_concurrence(
            _params(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), tau1, tau2)
        )
        for _ in range(5)
    }
    assert max(values) - min(values) <= 1e-10


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------


def test_build_family_dispatch():
    povm = build_family("noisy_bell", {"lambda": 0.3})
    np.testing.assert_allclose(
        povm.elements[0].matrix, noisy_bell_povm(0.3).elements[0].matrix
    )
    assert len(build_family("bell_projective").elements) == 4
    assert len(build_family("wire2_computational").elements) == 2
    with pytest.raises(BadParameter):
        build_family("unknown_family")
    with pytest.raises(BadParameter):
        build_family("noisy_bell", {})


def test_build_family_from_file(tmp_path):
    from swapforge.states import write_povm

    path = tmp_path / "povm.json"
    write_povm(noisy_bell_povm(0.6), path)
    povm = build_family("file", {"path": str(path)})
    assert len(povm.elements) == 4
