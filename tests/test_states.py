import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.engine import initial_state
from swapforge.errors import (
    BadDimension,
    BadIndex,
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
from swapforge.linalg import (
    floor_eigh,
    matrix_rank,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    psd_sqrt_closed_2x2,
)
from swapforge.measures import CUT_1_2, i_concurrence
from swapforge.states import (
    DensityMatrix,
    Povm,
    PovmElement,
    PureState,
    check_povm_stack,
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


@pytest.mark.parametrize("keep", [(0, 5), (0, 0), (-1,)])
def test_reduced_rejects_bad_wires(keep):
    # one wire rule for both state kinds: out of range, repeated, negative
    psi = initial_state(2)
    with pytest.raises(BadIndex):
        psi.reduced(keep)
    with pytest.raises(BadIndex):
        psi.reduced((0, 1, 2, 3)).reduced(keep)


# Every entry that reads local dimensions, given a 4-dimensional operand
# (amplitudes 1/2 each, or I/4) and the dims under test.
DIMS_ENTRIES = {
    "PureState": lambda dims: PureState(np.full(4, 0.5), dims),
    "DensityMatrix": lambda dims: DensityMatrix(np.eye(4) / 4, dims),
    "partial_trace": lambda dims: partial_trace(np.eye(4) / 4, dims, (0,)),
    "partial_transpose": lambda dims: partial_transpose(np.eye(4) / 4, dims, 0),
}


@pytest.mark.parametrize("entry", DIMS_ENTRIES)
def test_one_dimension_rule_at_every_entry(entry):
    check = DIMS_ENTRIES[entry]
    check((2, 2))
    with pytest.raises(BadDimension, match=r"^every local dimension must be >= 2, got \(1, 4\)$"):
        check((1, 4))
    with pytest.raises(ShapeMismatch) as caught:
        check((2, 3))
    assert str(caught.value) == "dims (2, 3) (product 6) do not factor dimension 4"


def test_max_entangled_rejects_small_dimension():
    with pytest.raises(BadDimension):
        max_entangled_state(1)


# ---------------------------------------------------------------------------
# POVM containers and validation
# ---------------------------------------------------------------------------


def test_povm_element_rejects_non_psd():
    with pytest.raises(NotPsd):
        PovmElement(np.diag([1.0, 1.0, 1.0, -0.5]))


# Every entry that checks a spectrum, given a unit-trace diagonal matrix
# (2x2 or 4x4) whose smallest eigenvalue is the one under test; the Povm
# entries complete it with I - m, whose smallest eigenvalue is the same.
PSD_ENTRIES = {
    "DensityMatrix": (2, lambda m: DensityMatrix(m, (2,))),
    "PovmElement": (4, PovmElement),
    "Povm": (4, lambda m: Povm([m, np.eye(4) - m])),
    "check_povm_stack": (4, lambda m: check_povm_stack([[m, np.eye(4) - m]])),
    "psd_sqrt": (4, psd_sqrt),
    "psd_sqrt_closed_2x2": (2, psd_sqrt_closed_2x2),
    "matrix_rank": (4, matrix_rank),
}


@pytest.mark.parametrize("entry", PSD_ENTRIES)
def test_one_psd_boundary_at_every_entry(entry):
    # eigenvalues in [-PSD_TOL, 0) pass; below that, one rule and one message
    dim, check = PSD_ENTRIES[entry]

    def matrix(low):
        return np.diag([1.0 - low, low] + [0.0] * (dim - 2))

    check(matrix(-0.5e-10))
    with pytest.raises(NotPsd) as caught:
        check(matrix(-2e-10))
    assert str(caught.value) == "min eigenvalue -2.000e-10 below -1e-10"


def test_povm_requires_completeness():
    with pytest.raises(InvalidPovm):
        Povm([np.eye(4) / 2, np.eye(4) / 3], local_dim=2)


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
        Povm([np.eye(4) / 2, np.eye(4) / 3], local_dim=2)


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
    w, _ = noisy_bell_povm(lam).elements[0].spectral
    expected = [(3 * lam + 1) / 4] + [(1 - lam) / 4] * 3
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_element_spectral_identity():
    w, _ = PovmElement(np.eye(4)).spectral
    np.testing.assert_allclose(w, np.ones(4))


@given(seeds)
def test_element_spectral_reconstructs(seed):
    rng = rng_from(seed)
    el = PovmElement(random_element_matrix(rng))
    w, v = el.spectral
    assert np.all(w >= 0) and np.all(np.diff(w) <= 0.0)
    assert w.sum() == pytest.approx(el.trace, abs=1e-10)
    np.testing.assert_allclose((v * w) @ v.conj().T, el.matrix, atol=1e-10)


def test_element_sqrt_squares_back(rng):
    el = PovmElement(random_element_matrix(rng))
    np.testing.assert_allclose(el.sqrt_matrix @ el.sqrt_matrix, el.matrix, atol=1e-10)


def test_standalone_element_decomposes_once_at_its_check(rng, monkeypatch):
    m = random_element_matrix(rng)
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return spy

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    el = PovmElement(m)
    assert calls == ["eigh"]
    el.spectral, el.basis_tensor(), el.sqrt_matrix, el.sqrt_matrix
    assert calls == ["eigh"]


def shared_spectrum_povms() -> dict:
    """Random d = 2, 3, 4 POVMs (one also with its elements reversed),
    and built-in families at points where their spectra are degenerate,
    built afresh on every call."""
    rng = np.random.default_rng(4242)
    povms = {
        f"random-d{d}-k{k}": random_povm(rng, d=d, n_elements=k)
        for d in (2, 3, 4)
        for k in (2, d * d)
    }
    for lam in (0.0, 1 / 3, 1.0):
        povms[f"noisy_bell-{lam:.3f}"] = noisy_bell_povm(lam)
    povms["random-d3-k9-reversed"] = Povm(povms["random-d3-k9"].matrices[::-1], local_dim=3)
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
    # the check's floored eigh is the one decomposition: the Povm keeps only
    # that pair, and each element's spectral is its row of it, bit for bit
    # the spectrum a standalone element takes at its own check
    povm = shared_spectrum_povms()[name]
    assert not hasattr(povm, "spectrum")
    fw, fv = povm.floored_spectrum
    expected = floor_eigh(*np.linalg.eigh(povm.matrices))
    assert all(np.array_equal(a, b) for a, b in zip((fw, fv), expected))
    for k, (el, m) in enumerate(zip(povm.elements, povm.matrices)):
        assert np.array_equal(el.matrix, m)
        assert np.shares_memory(el.spectral[0], fw[k]) and np.shares_memory(el.spectral[1], fv[k])
        alone = PovmElement(m).spectral
        assert np.array_equal(el.spectral[0], alone[0])
        assert np.array_equal(el.spectral[1], alone[1])


@pytest.mark.parametrize("name", list(shared_spectrum_povms()))
def test_povm_shared_spectrum_is_read_only(name):
    povm = shared_spectrum_povms()[name]
    el = povm.elements[0]
    shared = [povm.matrices, *povm.floored_spectrum, el.matrix, *el.spectral]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0


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
