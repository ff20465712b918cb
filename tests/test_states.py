import json
import re
import warnings
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.config import (
    OutputsSpec,
    RoundSpec,
    ScenarioConfig,
    SweepSpec,
    load_scenario_config,
)
from swapforge.classify import classify_measurement
from swapforge.engine import (
    SwapScenario,
    _expand,
    chain,
    initial_state,
    stacked_chain_negativities,
)
from swapforge.errors import (
    BadDimension,
    BadIndex,
    BadParameter,
    ConfigError,
    FileFormatError,
    IncompletePovm,
    InvalidPovm,
    NotPsd,
    ShapeMismatch,
    ValidationFailure,
)
from swapforge.experiment import run_scenario, sweep_rows
from swapforge.families import (
    SingleQubitElementParams,
    bell_projective,
    build_family,
    noisy_bell_povm,
    noisy_bell_spectrum,
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
    sqrt_from_spectrum,
)
from swapforge.measures import CUT_1_2, i_concurrence
from swapforge.sampling import (
    random_element,
    random_povm,
    random_povm_stack,
    random_product_rank1_element,
    random_rank1_element,
    random_separable_element,
)
from swapforge.states import (
    DensityMatrix,
    Povm,
    PovmElement,
    PureState,
    check_povm_stack,
    check_spectrum_stack,
    max_entangled_state,
    read_povm,
    write_povm,
)
from swapforge.tolerances import PROB_TOL

from conftest import noisy_bell_matrices, rng_from

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


@pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.nan)])
def test_pure_state_rejects_nan(entry):
    # a NaN norm must fail the normalization test, not slip past it
    with pytest.raises(ValidationFailure, match="squared norm nan"):
        PureState(np.array([entry, 0, 0, 0]), (2, 2))


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


@pytest.mark.parametrize("keep", [(0, 5), (0, 0), (-1,), (0.7, 3.2)])
def test_reduced_rejects_bad_wires(keep):
    # one wire rule for both state kinds: out of range, repeated, negative,
    # not an integer
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


@pytest.mark.parametrize("entry", DIMS_ENTRIES)
def test_non_integer_dimension_raises_at_every_entry(entry):
    # a float is rejected, not truncated; numpy integers read as ints
    check = DIMS_ENTRIES[entry]
    check((np.int64(2), np.int32(2)))
    with pytest.raises(BadDimension, match=r"^local dimension must be an integer, got 2\.7$"):
        check((2.7, 2))


def test_reduced_reads_a_generator_of_wires(rng):
    amps = rng.normal(size=24) + 1j * rng.normal(size=24)
    rho = PureState(amps / np.linalg.norm(amps), (2, 3, 4)).reduced((0, 1, 2))
    got = rho.reduced(w for w in (2, 1))
    assert got.dims == (4, 3)
    np.testing.assert_array_equal(got.matrix, rho.reduced((2, 1)).matrix)


def sweep_config(d) -> ScenarioConfig:
    rounds = (RoundSpec("noisy_bell", {"lambda": 0.5}), RoundSpec("wire2_computational"))
    return ScenarioConfig(local_dim=d, rounds=rounds, sweep=SweepSpec("lambda", 0.0, 1.0, 3))


# Every entry that reads one local dimension d it is given, called with d.
LOCAL_DIM_ENTRIES = {
    "initial_state": initial_state,
    "max_entangled_state": max_entangled_state,
    "SwapScenario": lambda d: SwapScenario(d, (bell_projective(),)),
    "Povm": lambda d: Povm(np.eye(4)[None], local_dim=d),
    "stacked_chain_negativities": lambda d: stacked_chain_negativities(d, [np.eye(4)[None, None]]),
    "run_scenario": lambda d: run_scenario(sweep_config(d)),
    "sweep_rows": lambda d: sweep_rows(sweep_config(d)),
    **{
        sampler.__name__: lambda d, sampler=sampler: sampler(np.random.default_rng(0), d=d)
        for sampler in (
            random_element,
            random_rank1_element,
            random_product_rank1_element,
            random_separable_element,
            random_povm,
        )
    },
    "random_povm_stack": lambda d: random_povm_stack(np.random.default_rng(0), 2, d=d),
}


@pytest.mark.parametrize("entry", LOCAL_DIM_ENTRIES)
def test_one_local_dimension_rule_at_every_scalar_entry(entry):
    # linalg's rule: an integer >= 2, numpy integers included; a float or a
    # string is rejected, never truncated.  Povm checks its local_dim against
    # its elements, so a 1 there is a mismatch.
    check = LOCAL_DIM_ENTRIES[entry]
    check(np.int64(2))
    for d in (2.7, "2", 2.0):
        message = f"^local dimension must be an integer, got {re.escape(repr(d))}$"
        with pytest.raises(BadDimension, match=message):
            check(d)
    with pytest.raises(ShapeMismatch if entry == "Povm" else BadDimension):
        check(1)


def test_run_scenario_reports_the_checked_local_dim(tmp_path):
    config = ScenarioConfig(
        local_dim=np.int64(2),
        rounds=(RoundSpec("bell_projective"),),
        outputs=OutputsSpec(report_path="report.json"),
        base_dir=str(tmp_path),
    )
    assert type(run_scenario(config)["local_dim"]) is int
    assert '\n  "local_dim": 2,\n' in (tmp_path / "report.json").read_text(encoding="utf-8")


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
    "check_spectrum_stack": (
        4, lambda m: check_spectrum_stack(*np.linalg.eigh([[m, np.eye(4) - m]]))
    ),
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


def _descending(w, v):
    return w[..., ::-1], v[..., ::-1]


def _shifted(w, v):
    w[0, 0] -= 1.0  # still complete and ascending, no longer PSD
    w[0, 1] += 1.0


def _set(name, index, value):
    def change(w, v):
        {"w": w, "v": v}[name][index] = value

    return change


NOT_HERMITIAN = "POVM element is not Hermitian"
SHAPES = "expected (G, K, D) eigenvalues on one (1, K, D, D) eigenvector table, got shapes "
# Each rule check_spectrum_stack applies, broken on the spectra of two noisy
# Bell POVMs (their eigenvalues, and the one table they share): the error
# class and the start of its message.
SPECTRUM_FAULTS = {
    "too few axes": (ShapeMismatch, "expected", lambda w, v: (w[0, 0], v[0, 0])),
    "w shape": (ShapeMismatch, "expected", lambda w, v: (w[..., :3], v)),
    "3 tables, 2 points": (
        ShapeMismatch, SHAPES + "(2, 4, 4) and (3, 4, 4, 4)", lambda w, v: (w, v.repeat(3, axis=0))
    ),
    "a table per point": (
        ShapeMismatch, SHAPES + "(2, 4, 4) and (2, 4, 4, 4)", lambda w, v: (w, v.repeat(2, axis=0))
    ),
    "no grid axis": (ShapeMismatch, SHAPES + "(2, 4, 4) and (4, 4, 4)", lambda w, v: (w, v[0])),
    "v not square": (ShapeMismatch, "expected a square", lambda w, v: (w, v[..., :3])),
    "not d*d": (ShapeMismatch, "element dimension 3", lambda w, v: (w[..., :3], v[..., :3, :3])),
    "descending": (ValidationFailure, "eigenvalues are not", _descending),
    "not orthonormal": (ValidationFailure, "eigenvectors deviate", _set("v", (0, 0, 0, 1), 0.7)),
    "nan eigenvector": (ValidationFailure, "eigenvectors deviate", _set("v", (0, 2, 1, 1), np.nan)),
    "nan eigenvalue": (ValidationFailure, NOT_HERMITIAN, _set("w", (0, 0, 0), np.nan)),
    "complex eigenvalue": (ValidationFailure, NOT_HERMITIAN, _set("w", (1, 3, 3), 0.6 + 1e-3j)),
    "non-psd": (NotPsd, "min eigenvalue -8.250e-01", _shifted),
    "incomplete": (IncompletePovm, "element sum deviates", _set("w", (1, 2, 3), 0.9)),
}


# The rules of a spectrum alone, with no element matrix to break: a pair
# whose shapes form no elements, the order of w and the table's
# orthonormality (V diag(w) V^dagger is Hermitian PSD for any V)
SPECTRUM_ONLY = {"w shape", "3 tables, 2 points", "a table per point", "no grid axis",
                 "v not square", "descending", "not orthonormal"}


@pytest.mark.parametrize("fault", SPECTRUM_FAULTS)
def test_check_spectrum_stack_rejects_each_broken_rule(fault):
    # and raises as check_povm_stack does on the elements V diag(w) V^dagger
    error, message, breaks = SPECTRUM_FAULTS[fault]
    w, v = noisy_bell_spectrum([0.3, 0.8])
    w, v = w.astype(complex), v.copy()  # writable, and w may take a complex eigenvalue
    floored = check_spectrum_stack(w, v)
    for got, want in zip(floored, floor_eigh(w.real, v)):
        assert np.array_equal(got, want)
    w, v = breaks(w, v) or (w, v)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        check_spectrum_stack(w, v)
    if fault not in SPECTRUM_ONLY:
        with pytest.raises(error):
            check_povm_stack((v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj())


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_check_spectrum_stack_rejects_an_infinite_eigenvalue(value):
    # kept out of SPECTRUM_FAULTS: the element matrices of an infinite
    # eigenvalue take inf * 0, which warns before check_povm_stack sees them
    w, v = noisy_bell_spectrum([0.3, 0.8])
    w[1, 2, 3 if value > 0 else 0] = value  # still ascending
    with pytest.raises(ValidationFailure, match=f"^{NOT_HERMITIAN}"):
        check_spectrum_stack(w, v)


@pytest.mark.parametrize("d", [2, 3])
def test_check_spectrum_stack_on_eigh_is_check_povm_stack(rng, d):
    # the spectral check takes a complex eigh as it comes and floors it alone;
    # its table is one POVM's, so the POVMs go one at a time
    for povm in random_povm_stack(rng, 3, d=d, n_elements=3):
        spectral = check_spectrum_stack(*np.linalg.eigh(povm[None]))
        for got, want in zip(spectral, check_povm_stack(povm[None])):
            assert np.array_equal(got, want)


def fixed_basis_spectrum(rng, d, grid, m=2):
    """A seeded fixed-basis family on G points: (G, 2m, d*d) eigenvalues on
    one complex (1, 2m, d*d, d*d) table.  Each of m random unitaries V is
    the table of V diag(a) V^dagger / m and, its columns reversed so both
    stay ascending, of V diag(1 - a) V^dagger / m, so each point's 2m
    elements sum to the identity.  Every row a holds an exact zero and a
    tie, and every other point's ends at exactly one, whose complement is
    an exact zero too."""
    dim = d * d
    q, _ = np.linalg.qr(rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim)))
    a = np.sort(rng.uniform(size=(grid, m, dim)), axis=-1)
    a[..., 0] = 0.0
    a[..., 1] = a[..., 2]
    a[::2, :, -1] = 1.0
    w = np.concatenate([a, (1.0 - a)[..., ::-1]], axis=1) / m
    return w, np.concatenate([q, q[..., ::-1]])[None]


SHARED_TABLES = {
    "noisy_bell_edges": lambda rng: noisy_bell_spectrum([0.0, 1.0 / 3.0, 1.0]),
    "noisy_bell_1001": lambda rng: noisy_bell_spectrum(np.linspace(0.0, 1.0, 1001)),
    "fixed_basis_d2": lambda rng: fixed_basis_spectrum(rng, 2, 7),
    "fixed_basis_d3": lambda rng: fixed_basis_spectrum(rng, 3, 5),
}


@pytest.mark.parametrize("case", SHARED_TABLES)
def test_shared_table_route_matches_the_materialized_route(rng, case):
    # the check floors one (1, K, D, D) table for the whole grid; the round
    # loop roots it by broadcasting, against its (G, K, D, D) copy
    w, v = SHARED_TABLES[case](rng)
    floored_w, floored_v = check_spectrum_stack(w, v)
    assert np.array_equal(floored_w, floor_eigh(w, v)[0])
    assert floored_v.shape == v.shape and np.array_equal(floored_v, v[..., ::-1])
    full_v = np.broadcast_to(floored_v, w.shape + w.shape[-1:]).copy()
    roots = sqrt_from_spectrum(floored_w, floored_v)
    np.testing.assert_allclose(roots, sqrt_from_spectrum(floored_w, full_v), rtol=0, atol=1e-15)
    d = isqrt(w.shape[-1])
    x, weight = next(_expand(d, [(floored_w, floored_v)], PROB_TOL))
    full_x, full_weight = next(_expand(d, [(floored_w, full_v)], PROB_TOL))
    np.testing.assert_allclose(x, full_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weight, full_weight, rtol=0, atol=1e-15)


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


# the built-in families built from their closed-form spectra: noisy_bell's
# lambda, or None for wire2_computational
SPECTRUM_BUILT = {
    "noisy_bell-0.000": 0.0,
    "noisy_bell-0.333": 1 / 3,
    "noisy_bell-1.000": 1.0,
    "wire2_computational": None,
}


@pytest.mark.parametrize(
    "name", [name for name in shared_spectrum_povms() if not name.startswith("noisy_bell")]
)
def test_povm_check_seeds_element_spectra(name):
    # the check's floored eigh is the one decomposition: the Povm keeps only
    # that pair, and each element's spectral is its row of it, bit for bit
    # the spectrum a standalone element takes at its own check.
    # wire2_computational's exact table is also the one eigh picks
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


@pytest.mark.parametrize("name", list(SPECTRUM_BUILT))
def test_family_povm_keeps_its_floored_closed_form(name, monkeypatch):
    # a family Povm built from its closed-form spectrum keeps that
    # spectrum's floor and decomposes nothing; its matrices are the
    # family's formula (an independent reference) within 1e-15, and
    # wire2_computational's are |i><i| x I exactly
    lam = SPECTRUM_BUILT[name]
    if lam is None:  # its exact table is the one eigh picks
        build, atol = wire2_computational_povm, 0.0
        reference = np.array([np.kron(np.diag(row), np.eye(2)) for row in np.eye(2)])
        want = floor_eigh(*np.linalg.eigh(reference))
    else:
        build, atol = (lambda: noisy_bell_povm(lam)), 1e-15
        reference = noisy_bell_matrices([lam])[0]
        want = [a[0] for a in floor_eigh(*noisy_bell_spectrum([lam]))]
    decomposed = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: decomposed.append(np.shape(m)) or real(m))
    povm = build()
    assert decomposed == []
    fw, fv = povm.floored_spectrum
    assert np.array_equal(fw, want[0]) and np.array_equal(fv, want[1])
    np.testing.assert_allclose(povm.matrices, reference, rtol=0, atol=atol)
    for k, (el, m) in enumerate(zip(povm.elements, povm.matrices)):
        assert np.array_equal(el.matrix, m)
        assert np.shares_memory(el.spectral[0], fw[k]) and np.shares_memory(el.spectral[1], fv[k])


@pytest.mark.parametrize("name", list(shared_spectrum_povms()))
def test_povm_shared_spectrum_is_read_only(name):
    povm = shared_spectrum_povms()[name]
    el = povm.elements[0]
    shared = [povm.matrices, *povm.floored_spectrum, el.matrix, *el.spectral]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0


def test_run_sweep_and_classify_build_no_element_rows(tmp_path, rng, monkeypatch):
    # a Povm builds its PovmElement rows on first read, and only chain (among
    # these) reads them: its rows equal rows read before, bit for bit
    povm_file(tmp_path, random_povm(rng, d=2, n_elements=3).matrices)
    config = ScenarioConfig(
        local_dim=2,
        rounds=(
            RoundSpec("file", {"path": "povm.json"}),
            RoundSpec("noisy_bell", {"lambda": 0.6}),
            RoundSpec("wire2_computational"),
        ),
        sweep=SweepSpec("lambda", 0.0, 1.0, 5),
        base_dir=str(tmp_path),
    )
    eager = config.build_rounds()
    rows = [povm.elements for povm in eager]
    built = []
    real = PovmElement._of_checked_stack.__func__
    spy = classmethod(lambda cls, *row: built.append(row) or real(cls, *row))
    monkeypatch.setattr(PovmElement, "_of_checked_stack", spy)
    run_scenario(config)
    sweep_rows(config)
    classify_measurement(read_povm(tmp_path / "povm.json"))
    assert built == []
    lazy = config.build_rounds()
    records = chain(SwapScenario(2, lazy))
    assert len(built) == sum(len(povm) for povm in lazy)
    for povm, want in zip(lazy, rows):
        for el, ref in zip(povm.elements, want, strict=True):
            assert np.array_equal(el.matrix, ref.matrix)
            assert all(np.array_equal(a, b) for a, b in zip(el.spectral, ref.spectral))
    reference = chain(SwapScenario(2, eager))
    assert [r.outcome_path for r in records] == [r.outcome_path for r in reference]
    for rec, ref in zip(records, reference):
        assert rec.element is lazy[-1].elements[rec.outcome_path[-1]]
        assert rec.probability == ref.probability
        assert np.array_equal(rec.full_state.amplitudes, ref.full_state.amplitudes)


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


@pytest.mark.parametrize("extra", [{"elemnts": 3}, {"comment": "x", "Local_dim": 2}])
def test_read_povm_rejects_unknown_top_level_keys(tmp_path, extra):
    path = povm_file(tmp_path, [np.eye(4)])
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, **extra}))
    message = f"POVM document: unknown key {min(extra)!r}; known: local_dim, elements"
    with pytest.raises(FileFormatError, match=re.escape(message)):
        read_povm(path)


def _from_file(reader):
    """``reader`` of a file holding ``doc``: its bytes, or a document in JSON."""

    def read(tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        return reader(path)

    return read


_HALF = {"theta": 0.7, "phi": 0.3, "tau1": 0.5, "tau2": 0.5}  # I/2 on one qubit

# each document read from outside: the class its faults raise, a valid
# instance, the keys it knows, and how it is read
DOCUMENTS = {
    "config": (
        ConfigError,
        {"rounds": [{"family": "bell_projective"}]},
        "local_dim, rounds, sweep, outputs, tolerance_overrides",
        _from_file(load_scenario_config),
    ),
    "POVM document": (
        FileFormatError,
        {"local_dim": 2, "elements": [[[[v, 0.0] for v in row] for row in np.eye(4).tolist()]]},
        "local_dim, elements",
        _from_file(read_povm),
    ),
    "separable_product element": (
        BadParameter,
        {"a": _HALF, "b": _HALF},
        "a, b",
        lambda tmp_path, el: build_family("separable_product", {"elements": [el] * 4}),
    ),
}
_BAD_TEXT = {
    "nested too deeply": b"[" * 100_000 + b"]" * 100_000,  # json.load raises RecursionError
    "not JSON": b'{"rounds": ',
    "not UTF-8": b'{"\xff": 1}',
}


@pytest.mark.parametrize(
    "document,fault",
    [(name, "misspelled key") for name in DOCUMENTS]
    + [(name, fault) for name in ("config", "POVM document") for fault in _BAD_TEXT],
)
def test_one_reading_rule_per_outside_document(tmp_path, document, fault):
    error, valid, known, read = DOCUMENTS[document]
    read(tmp_path, valid)
    doc = {**valid, "colour": 1} if fault == "misspelled key" else _BAD_TEXT[fault]
    with pytest.raises(error) as caught:
        read(tmp_path, doc)
    message = str(caught.value)
    if fault == "misspelled key":
        assert message == f"{document}: unknown key 'colour'; known: {known}"
    elif fault == "nested too deeply":
        assert message == f"{document} is nested too deeply to read"
    else:
        assert message.startswith(f"{document} is not valid JSON: ")


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


@pytest.mark.parametrize("pos, entry", [((0, 0), [True, False]), ((0, 1), [0.0, False])])
def test_read_povm_rejects_boolean_entries(tmp_path, pos, entry):
    # complex(True, False) is 1: a boolean must not be read as a number
    path = povm_file(tmp_path, [np.eye(4)])
    doc = json.loads(path.read_text())
    doc["elements"][0][pos[0]][pos[1]] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="malformed element matrix: .*boolean"):
        read_povm(path)


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
