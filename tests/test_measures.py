import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.classify import classify_element
from swapforge.errors import ShapeMismatch, ZeroTrace
from swapforge.families import noisy_bell_povm
from swapforge.linalg import partial_transpose
from swapforge.measures import (
    CUT_1_2,
    CUT_12_34,
    CUT_14_23,
    GRAM_CUTOFF,
    BipartiteCut,
    _gram_concurrence,
    _pure_concurrence,
    c12_vs_34_contraction,
    i_concurrence,
    levi_civita_det4,
    negativity,
    trace_distance,
)
from swapforge.sampling import random_element
from swapforge.states import DensityMatrix, PovmElement, PureState

from swapforge.tolerances import PPT_TOL

from conftest import element_swap_state, rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_unitary(rng, n):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def bell_density():
    return DensityMatrix(np.outer(BELL, BELL.conj()), (2, 2))


def werner(lam):
    m = lam * np.outer(BELL, BELL.conj()) + (1 - lam) / 4 * np.eye(4)
    return DensityMatrix(m, (2, 2))


# ---------------------------------------------------------------------------
# negativity (normalized so a Bell pair scores 1) and PPT
# ---------------------------------------------------------------------------


def test_negativity_bell_pair_is_one():
    assert negativity(bell_density(), CUT_1_2) == pytest.approx(1.0)


def test_negativity_maximally_mixed_is_zero():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert negativity(rho, CUT_1_2) == pytest.approx(0.0, abs=1e-12)


def test_negativity_noisy_bell_branch_value():
    # the lam = 0.6 outer-pair state carries (3*lam - 1)/2 = 0.4
    assert negativity(werner(0.6)) == pytest.approx(0.4, abs=1e-12)


def test_negativity_rejects_bad_cut():
    with pytest.raises(ShapeMismatch):
        negativity(bell_density(), BipartiteCut(left=(0,), right=()))


def is_ppt(rho: DensityMatrix, ppt_tol: float = PPT_TOL) -> bool:
    """True when the partial transpose of a two-wire state has no
    eigenvalue below -ppt_tol."""
    return bool(np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.dims, 1))[0] >= -ppt_tol)


def test_is_ppt_values():
    assert is_ppt(DensityMatrix(np.eye(4) / 4, (2, 2)))
    assert not is_ppt(bell_density())
    assert is_ppt(werner(1 / 3))  # exactly on the separability edge
    assert not is_ppt(werner(1 / 3 + 1e-6))


@given(seeds)
def test_negativity_zero_iff_ppt(seed):
    rng = rng_from(seed)
    g = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    m = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m).real, (2, 2))
    assert (negativity(rho) <= 1e-10) == is_ppt(rho)


def test_trace_distance_basic():
    assert trace_distance(bell_density(), bell_density()) == pytest.approx(0.0, abs=1e-14)
    rho = DensityMatrix(np.diag([1.0, 0, 0, 0]), (2, 2))
    sig = DensityMatrix(np.diag([0, 1.0, 0, 0]), (2, 2))
    assert trace_distance(rho, sig) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# I-concurrence
# ---------------------------------------------------------------------------


def test_i_concurrence_bell_and_product():
    assert i_concurrence(PureState(BELL, (2, 2)), CUT_1_2) == pytest.approx(1.0, abs=1e-12)
    product = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    assert i_concurrence(product, CUT_1_2) == 0.0


@given(seeds)
def test_i_concurrence_local_unitary_invariant(seed):
    rng = rng_from(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = PureState(v / np.linalg.norm(v), (2, 2))
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = PureState(u @ psi.amplitudes, (2, 2))
    assert i_concurrence(rotated, CUT_1_2) == pytest.approx(
        i_concurrence(psi, CUT_1_2), abs=1e-10
    )


def controlled_schmidt_states(rng, dim, targets):
    """One (dim, dim) matricized pure state per target I-concurrence C:
    Schmidt weights (1 - eps) e_0 + eps / dim, for which C^2 = eps (2 - eps),
    between Haar-random unitaries."""
    eps = np.asarray(targets) ** 2 / (1.0 + np.sqrt(1.0 - np.asarray(targets) ** 2))
    states = []
    for e in eps:
        weights = np.full(dim, e / dim)
        weights[0] += 1.0 - e
        u, v = random_unitary(rng, dim), random_unitary(rng, dim)
        states.append((u * np.sqrt(weights)) @ v.conj().T)
    return np.array(states)


@pytest.mark.parametrize("dim", [4, 9, 16])
def test_gram_concurrence_cutoff_bands(dim):
    # 0.1 itself is not on the grid, so no state sits on the cutoff
    targets = np.logspace(-9, 0, 31)
    m = controlled_schmidt_states(np.random.default_rng(dim), dim, targets)
    ref = _pure_concurrence(m)
    # the states span the band (below 1e-4 even the SVD route rounds)
    resolved = targets >= 1e-4
    assert np.allclose(ref[resolved], targets[resolved], rtol=1e-6)
    got = _gram_concurrence(m @ m.conj().swapaxes(-1, -2), m)
    high = ref >= GRAM_CUTOFF
    assert np.abs(got[high] - ref[high]).max() <= 1e-14
    # below the cutoff the SVD route serves the row, bit for bit
    assert np.array_equal(got[~high], ref[~high])
    assert high.sum() == 4 and (~high).sum() == 27


# ---------------------------------------------------------------------------
# element-level bipartition concurrences, as the classifier reports them
# ---------------------------------------------------------------------------


def test_c14_vs_23_rank1_is_zero(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    el = PovmElement(0.8 * np.outer(v, v.conj()))
    assert classify_element(el).c14vs23 == 0.0


def test_c14_vs_23_noisy_bell_and_identity():
    el = noisy_bell_povm(0.6).elements[0]
    assert classify_element(el).c14vs23 == pytest.approx(0.8, abs=1e-12)  # sqrt(1 - 0.36)
    assert classify_element(PovmElement(np.eye(4))).c14vs23 == pytest.approx(1.0, abs=1e-12)


def test_c14_vs_23_zero_trace_raises():
    with pytest.raises(ZeroTrace):
        classify_element(PovmElement(np.zeros((4, 4))))


def test_c12_vs_34_extremes():
    c12 = [classify_element(noisy_bell_povm(lam).elements[0]).c12vs34 for lam in (1.0, 0.0)]
    assert c12[0] == pytest.approx(1.0, abs=1e-12)
    assert c12[1] == pytest.approx(0.0, abs=1e-9)
    product = PovmElement(np.diag([1.0, 0, 0, 0]))  # |00><00|
    assert classify_element(product).c12vs34 == pytest.approx(0.0, abs=1e-12)


@given(seeds)
def test_c12_vs_34_agrees_with_concurrence_of_swap_state(seed):
    rng = rng_from(seed)
    el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
    psi, ec = element_swap_state(el), classify_element(el)
    assert ec.c12vs34 == pytest.approx(i_concurrence(psi, CUT_12_34), abs=1e-10)
    assert ec.c14vs23 == pytest.approx(i_concurrence(psi, CUT_14_23), abs=1e-10)


@given(seeds)
def test_c12_vs_34_contraction_path_agrees(seed):
    rng = rng_from(seed)
    el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
    assert c12_vs_34_contraction(el) == pytest.approx(classify_element(el).c12vs34, abs=1e-9)


def test_c14_vs_23_cross_validated_on_500_elements(rng):
    for _ in range(500):
        el = random_element(rng, d=2, rank=int(rng.integers(1, 5)))
        numeric = i_concurrence(element_swap_state(el), CUT_14_23)
        assert abs(classify_element(el).c14vs23 - numeric) <= 1e-10


def test_c12_vs_34_contraction_d3(rng):
    el = random_element(rng, d=3)
    assert c12_vs_34_contraction(el) == pytest.approx(classify_element(el).c12vs34, abs=1e-9)


# ---------------------------------------------------------------------------
# Levi-Civita determinant
# ---------------------------------------------------------------------------


def test_levi_civita_det_matches_numpy(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert levi_civita_det4(m) == pytest.approx(np.linalg.det(m), abs=1e-12)
