import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.classify import classify_measurement
from swapforge.config import RoundSpec, ScenarioConfig
from swapforge.engine import SwapScenario, chain
from swapforge.errors import BadParameter, IncompletePovm, ZeroTrace
from swapforge.experiment import run_scenario
from swapforge.families import (
    BELL_STATES,
    FAMILIES,
    SingleQubitElementParams,
    bell_projective,
    build_family,
    noisy_bell_povm,
    noisy_bell_spectrum,
    separable_product_povm,
    single_qubit_element,
    single_qubit_residual_concurrence,
    wire2_computational_povm,
)
from swapforge.linalg import matrix_rank, psd_sqrt, sqrt_from_spectrum
from swapforge.measures import CUT_1_2, i_concurrence
from swapforge.states import (
    Povm,
    PureState,
    check_povm_stack,
    check_spectrum_stack,
    max_entangled_state,
    write_povm,
)

from conftest import noisy_bell_matrices, rng_from

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


def one_round_report(family: str, params: dict) -> dict:
    return run_scenario(ScenarioConfig(local_dim=2, rounds=(RoundSpec(family, params),)))


def test_one_round_noisy_bell_at_0_2_keeps_no_negativity():
    # lambda = 0.2 < 1/3: every branch state is separable, and on the
    # closed-form roots a run reads its negativity as exactly zero
    report = one_round_report("noisy_bell", {"lambda": 0.2})
    assert [branch["negativity14"] for branch in report["branches"]] == [0.0] * 4


def test_bell_projective_alone_averages_exactly_one():
    assert one_round_report("bell_projective", {})["average_negativity"] == 1.0


@pytest.mark.parametrize(
    "lams, named",
    [
        ([0.2, np.nan, 0.5, 1.5], "nan"),
        ([0.0, 1.0, 1.0 + 1e-12, np.nan], repr(1.0 + 1e-12)),
        ([0.5, -0.25], "-0.25"),
    ],
)
def test_noisy_bell_stack_names_the_first_bad_lambda(lams, named):
    message = rf"^lambda must lie in \[0, 1\], got {re.escape(named)}$"
    with pytest.raises(BadParameter, match=message):
        noisy_bell_spectrum(np.array(lams))


# the separable edge, both ends, and the 1001-point paper grid
LAMBDA_GRIDS = {
    "edges": np.array([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]),
    "paper_1001": np.linspace(0.0, 1.0, 1001),
}


@pytest.mark.parametrize("grid", LAMBDA_GRIDS.values(), ids=LAMBDA_GRIDS)
def test_noisy_bell_spectrum_rebuilds_the_stack(grid):
    w, v = noisy_bell_spectrum(grid)
    assert w.shape == (len(grid), 4, 4) and v.shape == (1, 4, 4, 4)  # one shared table
    assert v.dtype == np.float64 and not v.flags.writeable
    assert (np.diff(w, axis=-1) >= 0.0).all()
    rebuilt = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    np.testing.assert_allclose(rebuilt, noisy_bell_matrices(grid), rtol=0, atol=1e-15)


@pytest.mark.parametrize("grid", LAMBDA_GRIDS.values(), ids=LAMBDA_GRIDS)
def test_noisy_bell_spectrum_floors_and_roots_like_the_eigh_check(grid):
    # eigh picks its own basis of the degenerate (1 - lam)/4 eigenspace, so
    # the eigenvectors differ; the floored eigenvalues and the roots do not
    w, v = check_spectrum_stack(*noisy_bell_spectrum(grid))
    ref_w, ref_v = check_povm_stack(noisy_bell_matrices(grid))
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-15)
    assert np.array_equal(w == 0.0, ref_w == 0.0)
    assert (w[grid == 1.0][..., 1:] == 0.0).all()  # the sharp Bell projectors have rank one
    roots = sqrt_from_spectrum(w, v)
    np.testing.assert_allclose(roots, sqrt_from_spectrum(ref_w, ref_v), rtol=0, atol=1e-14)


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
    for ec in classify_measurement(noisy_bell_povm(lam)).per_element:
        assert ec.c14vs23 == pytest.approx(np.sqrt(1 - lam**2), abs=1e-10)
        root = np.sqrt(1 - lam) * np.sqrt(1 + 3 * lam)
        expected = np.sqrt(1 + lam**2 - root + lam * root) / np.sqrt(2)
        assert ec.c12vs34 == pytest.approx(expected, abs=1e-9)


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


MAX = sys.float_info.max


@pytest.mark.parametrize(
    "tau1, tau2, expected",
    [(1e200, 1e200, 1.0), (MAX, MAX, 1.0), (MAX, 1.0, 2.0 / math.sqrt(MAX))],
)
def test_residual_concurrence_of_weights_whose_product_overflows(tau1, tau2, expected):
    # tau1 * tau2 and tau1 + tau2 overflow unscaled: inf at 1e200, NaN at MAX
    got = single_qubit_residual_concurrence(_params(0.3, 0.7, tau1, tau2))
    assert got == pytest.approx(expected, rel=1e-15)


def test_single_qubit_element_near_the_float_maximum_is_silent():
    # warnings are errors in this suite; some entries overflow to inf
    params = [_params(theta, 0.3, MAX, MAX) for theta in np.linspace(0.0, 3.14, 50)]
    elements = np.array([single_qubit_element(p) for p in params])
    assert not np.isfinite(elements).all()


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
    path = tmp_path / "povm.json"
    write_povm(noisy_bell_povm(0.6), path)
    povm = build_family("file", {"path": str(path)})
    assert len(povm.elements) == 4


def param_values(tmp_path) -> dict:
    """A valid value for every parameter name any family declares."""
    path = tmp_path / "povm.json"
    write_povm(noisy_bell_povm(0.6), path)
    factor = {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 1.0}
    return {"lambda": 0.3, "elements": [{"a": factor, "b": factor}], "path": str(path)}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_builds_from_exactly_its_declared_params(tmp_path, name):
    family = FAMILIES[name]
    params = {p: param_values(tmp_path)[p] for p in family.params}
    assert isinstance(build_family(name, params), Povm)
    with pytest.raises(BadParameter, match=re.escape(f"{name} takes parameters")):
        build_family(name, dict(params, extra=0.5))
    for missing in params:
        with pytest.raises(BadParameter, match=re.escape(f"{name} takes parameters")):
            build_family(name, {p: v for p, v in params.items() if p != missing})
    if family.spectrum is not None:  # a sweepable family has one parameter
        (param,) = family.params
        w, v = family.spectrum(np.array([params[param]] * 3))
        rebuilt = (v[0] * w[1][..., None, :]) @ np.swapaxes(v[0], -1, -2).conj()  # shared table
        np.testing.assert_allclose(rebuilt, build_family(name, params).matrices, rtol=0, atol=1e-15)
