import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.errors import (
    BadDimension,
    FileFormatError,
    InvalidPovm,
    NotPsd,
    ValidationFailure,
)
from swapforge.families import noisy_bell_povm
from swapforge.measures import CUT_1_2, i_concurrence
from swapforge.states import (
    DensityMatrix,
    Povm,
    PovmElement,
    PureState,
    conjugate_computational,
    max_entangled_state,
    read_povm,
    validate_povm,
    validate_povm_matrices,
    write_povm,
)

from conftest import rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_element_matrix(rng, dim=4, rank=None):
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    m = g @ g.conj().T
    return m / np.linalg.eigvalsh(m)[-1]


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


def test_pure_state_requires_normalization():
    with pytest.raises(ValidationFailure):
        PureState(np.array([1.0, 1.0]), (2,))


def test_density_matrix_validation(rng):
    with pytest.raises(NotPsd):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(ValidationFailure):
        DensityMatrix(np.diag([0.6, 0.6]), (2,))


@pytest.mark.parametrize("entry", [np.nan, complex(np.nan, np.nan)])
def test_density_matrix_rejects_nan(entry):
    # NaN makes every comparison False; the Hermiticity test must not pass it
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = m[2, 1] = entry
    with pytest.raises(ValidationFailure):
        DensityMatrix(m, (2, 2))


def test_max_entangled_state_d2():
    psi = max_entangled_state(2)
    np.testing.assert_allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_state_d3():
    psi = max_entangled_state(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(psi.amplitudes, expected)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_max_entangled_marginals_maximally_mixed(d):
    psi = max_entangled_state(d)
    for wire in (0, 1):
        np.testing.assert_allclose(
            psi.reduced((wire,)).matrix, np.eye(d) / d, atol=1e-14
        )
    assert i_concurrence(psi, CUT_1_2) == pytest.approx(1.0, abs=1e-12)


def test_max_entangled_rejects_small_dimension():
    with pytest.raises(BadDimension):
        max_entangled_state(1)


# ---------------------------------------------------------------------------
# POVM containers and validation
# ---------------------------------------------------------------------------


def test_povm_element_rejects_non_psd():
    with pytest.raises(NotPsd):
        PovmElement(np.diag([1.0, 1.0, 1.0, -0.5]))


def test_povm_requires_completeness():
    with pytest.raises(InvalidPovm):
        Povm.from_matrices([np.eye(4) / 2, np.eye(4) / 3], local_dim=2)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_validate_povm_noisy_bell_passes(lam):
    report = validate_povm(noisy_bell_povm(lam))
    assert report.passed
    assert report.completeness_deviation < 1e-12


def test_validate_povm_matrices_reports_deviation():
    report = validate_povm_matrices([np.eye(4) / 2, np.eye(4) / 3], local_dim=2)
    assert not report.passed
    assert report.completeness_deviation == pytest.approx(1 / 6)


def test_validate_povm_matrices_catches_small_perturbation(rng):
    proj = np.diag([1.0, 0, 0, 0])
    x = rng.normal(size=(4, 4))
    x = x + x.T
    report = validate_povm_matrices([proj, np.eye(4) - proj + 1e-6 * x])
    assert not report.passed


def test_povm_trace_sums_to_dim_squared():
    povm = noisy_bell_povm(0.4)
    assert sum(el.trace for el in povm.elements) == pytest.approx(4.0, abs=1e-9)


def test_povm_flags_degenerate_elements():
    povm = Povm.from_matrices([np.eye(4), np.zeros((4, 4))], local_dim=2)
    assert povm.degenerate_indices == (1,)


# ---------------------------------------------------------------------------
# spectral decomposition of elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_element_spectral_noisy_bell_eigenvalues(lam):
    spec = noisy_bell_povm(lam).elements[0].spectral
    expected = [(3 * lam + 1) / 4] + [(1 - lam) / 4] * 3
    np.testing.assert_allclose(spec.eigenvalues, expected, atol=1e-12)


def test_element_spectral_identity():
    spec = PovmElement(np.eye(4)).spectral
    np.testing.assert_allclose(spec.eigenvalues, np.ones(4))


@given(seeds)
def test_element_spectral_reconstructs(seed):
    rng = rng_from(seed)
    el = PovmElement(random_element_matrix(rng))
    spec = el.spectral
    v, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(el.trace, abs=1e-10)
    np.testing.assert_allclose((v * w) @ v.conj().T, el.matrix, atol=1e-10)


def test_element_sqrt_squares_back(rng):
    el = PovmElement(random_element_matrix(rng))
    np.testing.assert_allclose(el.sqrt_matrix @ el.sqrt_matrix, el.matrix, atol=1e-10)


# ---------------------------------------------------------------------------
# computational-basis conjugation
# ---------------------------------------------------------------------------


def test_conjugate_real_fixed_and_involutive(rng):
    real = np.real(random_element_matrix(rng))
    np.testing.assert_array_equal(conjugate_computational(real), real)
    m = random_element_matrix(rng)
    np.testing.assert_array_equal(conjugate_computational(conjugate_computational(m)), m)


def test_conjugate_flips_y_eigenstate():
    plus_y = np.array([1.0, 1j]) / np.sqrt(2)
    minus_y = np.array([1.0, -1j]) / np.sqrt(2)
    conj = conjugate_computational(np.outer(plus_y, plus_y.conj()))
    np.testing.assert_allclose(conj, np.outer(minus_y, minus_y.conj()), atol=1e-15)


@given(seeds)
def test_conjugate_preserves_spectrum(seed):
    rng = rng_from(seed)
    m = random_element_matrix(rng)
    w1 = np.linalg.eigvalsh(m)
    w2 = np.linalg.eigvalsh(conjugate_computational(m))
    np.testing.assert_allclose(w1, w2, atol=1e-10)


# ---------------------------------------------------------------------------
# POVM file round-trip
# ---------------------------------------------------------------------------


def test_povm_file_round_trip(tmp_path, rng):
    povm = noisy_bell_povm(0.37)
    path = tmp_path / "povm.json"
    write_povm(povm, path)
    loaded = read_povm(path)
    assert loaded.local_dim == 2
    for a, b in zip(loaded.elements, povm.elements):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_read_povm_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_povm(path)


def test_read_povm_rejects_missing_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"local_dim": 2}')
    with pytest.raises(FileFormatError):
        read_povm(path)


def test_read_povm_rejects_non_psd(tmp_path):
    mats = [np.diag([1.5, 1.0, 1.0, 1.0]), np.diag([-0.5, 0.0, 0.0, 0.0])]
    doc = {
        "local_dim": 2,
        "elements": [[[[float(v.real), float(v.imag)] for v in row] for row in m] for m in mats],
    }
    path = tmp_path / "nonpsd.json"
    import json

    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidPovm):
        read_povm(path)
