import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.errors import (
    BadDimension,
    FileFormatError,
    IncompletePovm,
    InvalidPovm,
    NotPsd,
    ShapeMismatch,
    ValidationFailure,
)
from swapforge.families import (
    SingleQubitElementParams,
    noisy_bell_povm,
    separable_product_povm,
    wire2_computational_povm,
)
from swapforge.linalg import floored_psd_eigh
from swapforge.measures import CUT_1_2, i_concurrence
from swapforge.states import (
    DensityMatrix,
    Povm,
    PovmElement,
    PureState,
    check_povm_stack,
    conjugate_computational,
    max_entangled_state,
    read_povm,
    write_povm,
)
from swapforge.sampling import random_povm

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


def povm_file(tmp_path, mats, local_dim=2):
    """A POVM file holding the given element matrices."""
    doc = {
        "local_dim": local_dim,
        "elements": [[[[float(v.real), float(v.imag)] for v in row] for row in m] for m in mats],
    }
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_validate_povm_noisy_bell_passes(lam):
    mats = np.array([el.matrix for el in noisy_bell_povm(lam).elements])
    check_povm_stack(mats)
    assert np.abs(mats.sum(axis=0) - np.eye(4)).max() < 1e-12


def test_validate_povm_matrices_reports_deviation():
    with pytest.raises(IncompletePovm, match="1.667e-01"):
        Povm.from_matrices([np.eye(4) / 2, np.eye(4) / 3], local_dim=2)


def test_validate_povm_matrices_catches_small_perturbation(rng, tmp_path):
    proj = np.diag([1.0, 0, 0, 0])
    x = rng.normal(size=(4, 4))
    x = x + x.T
    with pytest.raises(InvalidPovm, match="^POVM file fails validation: "):
        read_povm(povm_file(tmp_path, [proj, np.eye(4) - proj + 1e-6 * x]))


def test_povm_trace_sums_to_dim_squared():
    povm = noisy_bell_povm(0.4)
    assert sum(el.trace for el in povm.elements) == pytest.approx(4.0, abs=1e-9)


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


def shared_spectrum_povms() -> dict:
    """Random d = 2, 3, 4 POVMs, and built-in families at points where
    their spectra are degenerate, built afresh on every call."""
    rng = np.random.default_rng(4242)
    povms = {
        f"random-d{d}-k{k}": random_povm(rng, d=d, n_elements=k)
        for d in (2, 3, 4)
        for k in (2, d * d)
    }
    for lam in (0.0, 1 / 3, 1.0):
        povms[f"noisy_bell-{lam:.3f}"] = noisy_bell_povm(lam)
    povms["wire2_computational"] = wire2_computational_povm()
    ket0, ket1 = (SingleQubitElementParams(t, 0.0, 1.0, 0.0) for t in (0.0, np.pi))
    povms["separable_product"] = separable_product_povm(
        [
            (ket0, SingleQubitElementParams(0.0, 0.0, 1.0, 1.0)),  # |0><0| x I
            (ket1, SingleQubitElementParams(np.pi / 2, 0.0, 0.7, 0.3)),
            (ket1, SingleQubitElementParams(np.pi / 2, 0.0, 0.3, 0.7)),
        ]
    )
    return povms


@pytest.mark.parametrize("name", list(shared_spectrum_povms()))
def test_povm_check_seeds_element_spectra(name):
    # the eigh of the PSD check is the one decomposition: the Povm keeps it
    # and each element's floored spectrum is cut from it, bit for bit
    povm = shared_spectrum_povms()[name]
    w, v = np.linalg.eigh(povm.matrices)
    assert np.array_equal(povm.spectrum[0], w) and np.array_equal(povm.spectrum[1], v)
    for el, m in zip(povm.elements, povm.matrices):
        assert "spectral" in el.__dict__  # seeded, not yet computed on read
        assert np.array_equal(el.matrix, m)
        fw, fv = floored_psd_eigh(el.matrix)
        assert np.array_equal(el.spectral.eigenvalues, fw)
        assert np.array_equal(el.spectral.eigenvectors, fv)


@pytest.mark.parametrize("name", list(shared_spectrum_povms()))
def test_povm_shared_spectrum_is_read_only(name):
    povm = shared_spectrum_povms()[name]
    el = povm.elements[0]
    shared = [povm.matrices, *povm.spectrum, el.matrix, el.spectral.eigenvalues]
    for a in shared + [el.spectral.eigenvectors]:
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0


def test_povm_from_elements_decomposes_on_first_read(rng):
    els = tuple(PovmElement(m) for m in random_povm(rng, d=3, n_elements=4).matrices)
    povm = Povm(elements=els, local_dim=3)
    assert "spectrum" not in povm.__dict__
    w, v = povm.spectrum
    assert np.array_equal(w, np.linalg.eigh(povm.matrices)[0])
    for a in (povm.matrices, w, v):
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0


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
    with pytest.raises(InvalidPovm, match="POVM file fails validation: min eigenvalue"):
        read_povm(povm_file(tmp_path, mats))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (2, 3)])
def test_read_povm_rejects_non_finite_entry(tmp_path, value, pos):
    # each is one InvalidPovm, never numpy's LinAlgError from eigvalsh
    m = np.eye(4) / 2
    m[pos] = value
    with pytest.raises(InvalidPovm, match="POVM file fails validation: .*not Hermitian"):
        read_povm(povm_file(tmp_path, [m, np.eye(4) / 2]))


def test_read_povm_rejects_huge_imaginary_diagonal_without_warning(tmp_path):
    # m - m^dagger overflows to inf there, which fails the test without a warning
    m = np.eye(4, dtype=complex) / 2
    m[3, 3] += 1e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidPovm, match="POVM file fails validation: .*not Hermitian"):
            read_povm(povm_file(tmp_path, [m, np.eye(4) / 2]))


@pytest.mark.parametrize("local_dim", [float("inf"), float("-inf"), float("nan")])
def test_read_povm_rejects_non_finite_local_dim(tmp_path, local_dim):
    # int(inf) raises OverflowError, which must surface as a format error
    with pytest.raises(FileFormatError):
        read_povm(povm_file(tmp_path, [np.eye(4)], local_dim=local_dim))


@pytest.mark.parametrize("local_dim", [2.7, "2", True, 2.0])
def test_read_povm_rejects_non_integer_local_dim(tmp_path, local_dim):
    # the config loader's rule: a JSON integer, never rounded or coerced
    with pytest.raises(FileFormatError, match=f"local_dim must be an integer, got {local_dim!r}"):
        read_povm(povm_file(tmp_path, [np.eye(4)], local_dim=local_dim))


def test_read_povm_rejects_wrong_local_dim(tmp_path):
    for local_dim in (1, 3):
        with pytest.raises(ShapeMismatch):
            read_povm(povm_file(tmp_path, [np.eye(4)], local_dim=local_dim))
