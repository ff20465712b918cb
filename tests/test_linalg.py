import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.errors import BadIndex, NotHermitian, NotPsd, ShapeMismatch
from swapforge.linalg import (
    _hermitian_trace_norms,
    _transpose_wire2,
    _wire2_map,
    floor_eigh,
    matrix_rank,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    psd_sqrt_closed_2x2,
    sqrt_from_spectrum,
    trace_norm,
)

from conftest import rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_psd(rng, n, rank=None):
    g = random_complex(rng, n, rank or n)
    return g @ g.conj().T


def random_density(rng, n):
    m = random_psd(rng, n)
    return m / np.trace(m).real


BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------


def test_partial_trace_bell_marginal():
    rho = np.outer(BELL, BELL.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), (0,)), np.eye(2) / 2, atol=1e-14)


@given(seeds)
def test_partial_trace_product_oracle(seed):
    rng = rng_from(seed)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), (0,)), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), (1,)), rho_b, atol=1e-12)


@given(seeds)
def test_partial_trace_of_kron_scales_by_trace(seed):
    rng = rng_from(seed)
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 2, 2)
    np.testing.assert_allclose(
        partial_trace(np.kron(a, b), (2, 2), (0,)), np.trace(b) * a, atol=1e-12
    )


def test_partial_trace_all_wires_is_full_trace(rng):
    rho = random_density(rng, 4)
    out = partial_trace(rho, (2, 2), ())
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0)


def test_partial_trace_keep_order():
    rho_a = np.diag([1.0, 0.0])
    rho_b = np.diag([0.3, 0.7]).astype(complex)
    joint = np.kron(rho_a, rho_b)
    swapped = partial_trace(joint, (2, 2), (1, 0))
    np.testing.assert_allclose(swapped, np.kron(rho_b, rho_a), atol=1e-14)


def test_partial_trace_errors(rng):
    rho = random_density(rng, 4)
    with pytest.raises(ShapeMismatch):
        partial_trace(rho, (2, 3), (0,))
    with pytest.raises(BadIndex):
        partial_trace(rho, (2, 2), (0, 0))
    with pytest.raises(BadIndex):
        partial_trace(rho, (2, 2), (2,))


# a float where a wire index goes, to partial_trace's keep and partial_transpose's sub
NON_INTEGER_WIRES = {
    "trace_keep": lambda m: partial_trace(m, (2, 2), (0.7,)),
    "trace_keep_numpy_float": lambda m: partial_trace(m, (2, 2), (np.float64(1.0),)),
    "transpose_sub": lambda m: partial_transpose(m, (2, 2), 0.5),
    "transpose_sub_whole_float": lambda m: partial_transpose(m, (2, 2), 1.0),
}


@pytest.mark.parametrize("case", NON_INTEGER_WIRES)
def test_non_integer_wire_raises(rng, case):
    # a float is rejected, not truncated; numpy integers read as ints
    rho = random_density(rng, 4)
    with pytest.raises(BadIndex, match=r"^wire must be an integer, got "):
        NON_INTEGER_WIRES[case](rho)
    one, two = np.int32(1), np.int64(2)
    traced = partial_trace(rho, (two, two), (one,))
    np.testing.assert_array_equal(traced, partial_trace(rho, (2, 2), (1,)))
    transposed = partial_transpose(rho, (two, two), one)
    np.testing.assert_array_equal(transposed, partial_transpose(rho, (2, 2), 1))


# ---------------------------------------------------------------------------
# partial_transpose
# ---------------------------------------------------------------------------


def test_partial_transpose_product_factorizes(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    out = partial_transpose(np.kron(rho_a, rho_b), (2, 2), 1)
    np.testing.assert_allclose(out, np.kron(rho_a, rho_b.T), atol=1e-14)


def test_partial_transpose_bell_spectrum():
    rho = np.outer(BELL, BELL.conj())
    w = np.sort(np.linalg.eigvalsh(partial_transpose(rho, (2, 2), 1)))
    np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


@given(seeds)
def test_partial_transpose_involution_and_trace(seed):
    rng = rng_from(seed)
    rho = random_density(rng, 16)
    pt = partial_transpose(rho, (2, 2, 2, 2), 2)
    assert np.trace(pt) == pytest.approx(np.trace(rho))
    np.testing.assert_allclose(
        partial_transpose(pt, (2, 2, 2, 2), 2), rho, atol=1e-14
    )


# ---------------------------------------------------------------------------
# permute_subsystems: a wire-reordering oracle kept with its own tests
# ---------------------------------------------------------------------------


def permute_subsystems(m, dims, perm):
    """Reorder wires so that output wire k carries input wire ``perm[k]``."""
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise BadIndex(f"perm={perm} is not a permutation of {n} wires")
    axes = list(perm) + [p + n for p in perm]
    return np.asarray(m).reshape(tuple(dims) * 2).transpose(axes).reshape(m.shape)


def test_permute_identity_is_noop(rng):
    rho = random_density(rng, 8)
    np.testing.assert_array_equal(permute_subsystems(rho, (2, 2, 2), (0, 1, 2)), rho)


def test_permute_swaps_product_factors(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    out = permute_subsystems(np.kron(rho_a, rho_b), (2, 3), (1, 0))
    np.testing.assert_allclose(out, np.kron(rho_b, rho_a), atol=1e-14)


@given(seeds)
def test_permute_round_trip(seed):
    rng = rng_from(seed)
    rho = random_density(rng, 16)
    perm = tuple(rng.permutation(4))
    inverse = tuple(np.argsort(perm))
    once = permute_subsystems(rho, (2, 2, 2, 2), perm)
    np.testing.assert_allclose(
        permute_subsystems(once, (2, 2, 2, 2), inverse), rho, atol=1e-14
    )


def test_permute_composition(rng):
    rho = random_density(rng, 8)
    dims = (2, 2, 2)
    p1, p2 = (1, 2, 0), (2, 0, 1)
    composed = tuple(p1[p2[k]] for k in range(3))
    step = permute_subsystems(permute_subsystems(rho, dims, p1), dims, p2)
    np.testing.assert_allclose(step, permute_subsystems(rho, dims, composed), atol=1e-14)


def test_permute_rejects_non_permutation(rng):
    with pytest.raises(BadIndex):
        permute_subsystems(random_density(rng, 4), (2, 2), (0, 0))


# ---------------------------------------------------------------------------
# the Hermiticity rule of the spectral routines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fn", [matrix_rank, psd_sqrt, psd_sqrt_closed_2x2])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_matrix_is_not_hermitian(fn, value):
    with pytest.raises(NotHermitian):
        fn(np.full((2, 2), value))
    m = np.eye(2)
    m[1, 0] = value  # the triangle eigh reads
    with pytest.raises(NotHermitian):
        fn(m)


def test_empty_matrix_is_hermitian():
    assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)
    assert matrix_rank(np.zeros((0, 0))) == 0


# ---------------------------------------------------------------------------
# psd_sqrt and the 2x2 closed form
# ---------------------------------------------------------------------------


def test_psd_sqrt_identity_and_projector():
    np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)
    proj = np.outer(BELL, BELL.conj())
    np.testing.assert_allclose(psd_sqrt(4 * proj), 2 * proj, atol=1e-13)


@given(seeds)
def test_psd_sqrt_squares_back(seed):
    rng = rng_from(seed)
    m = random_psd(rng, 5)
    root = psd_sqrt(m)
    np.testing.assert_allclose(root @ root, m, atol=1e-10 * max(1, np.abs(m).max()))
    np.testing.assert_allclose(root, root.conj().T, atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsd):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_closed_2x2_known_values():
    np.testing.assert_allclose(psd_sqrt_closed_2x2(np.eye(2)), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        psd_sqrt_closed_2x2(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-15
    )
    np.testing.assert_array_equal(psd_sqrt_closed_2x2(np.zeros((2, 2))), np.zeros((2, 2)))


@given(seeds)
def test_psd_sqrt_closed_2x2_matches_spectral(seed):
    rng = rng_from(seed)
    m = random_psd(rng, 2)
    np.testing.assert_allclose(psd_sqrt_closed_2x2(m), psd_sqrt(m), atol=1e-12)


def test_psd_sqrt_closed_2x2_shape_guard(rng):
    with pytest.raises(ShapeMismatch):
        psd_sqrt_closed_2x2(random_psd(rng, 3))


# ---------------------------------------------------------------------------
# trace_norm, matrix_rank
# ---------------------------------------------------------------------------


def test_trace_norm_values(rng):
    assert trace_norm(random_density(rng, 4)) == pytest.approx(1.0)
    rho = np.outer(BELL, BELL.conj())
    assert trace_norm(partial_transpose(rho, (2, 2), 1)) == pytest.approx(2.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ShapeMismatch):
        trace_norm(np.ones((2, 3)))


@given(seeds)
def test_trace_norm_of_pt_at_least_one(seed):
    rng = rng_from(seed)
    rho = random_density(rng, 4)
    assert trace_norm(partial_transpose(rho, (2, 2), 1)) >= 1.0 - 1e-12


def block_diagonal_stack(rng, d, complex_entries, n=6):
    """n Hermitian (d^2, d^2) matrices sharing one block pattern: blocks of
    1-4 indices summing to d^2, rows and columns permuted alike."""
    dim = d * d
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(4, dim - sum(sizes)) + 1)))
    m = np.zeros((n, dim, dim), dtype=complex if complex_entries else float)
    start = 0
    for size in sizes:
        g = rng.normal(size=(n, size, size))
        if complex_entries:
            g = g + 1j * rng.normal(size=(n, size, size))
        m[:, start : start + size, start : start + size] = g + np.conj(np.swapaxes(g, -1, -2))
        start += size
    perm = rng.permutation(dim)
    return m[:, perm][:, :, perm]


@given(
    seeds,
    st.sampled_from([2, 3, 4]),
    st.booleans(),
    st.sampled_from(["blocks", "all zero", "one dense", "nan"]),
)
def test_hermitian_trace_norms_match_eigvalsh(seed, d, complex_entries, case):
    rng = rng_from(seed)
    m = block_diagonal_stack(rng, d, complex_entries)
    m[rng.random(len(m)) < 0.3] = 0.0  # some all-zero matrices
    if case == "all zero":
        m[:] = 0.0
    if case == "one dense":  # one matrix links every index: a single block
        g = rng.normal(size=m.shape[1:])
        if complex_entries:
            g = g + 1j * rng.normal(size=m.shape[1:])
        m[0] = g + g.conj().T
    expected = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    # eigvalsh errs in proportion to the whole matrix's norm, up to ~3e-14 at d = 4
    scale = np.fmax(np.linalg.norm(m, axis=(-2, -1)), 1.0)
    nan = np.zeros(len(m), dtype=bool)
    if case == "nan":  # a Hermitian entry, so at (i, j) and (j, i); eigvalsh may read it as 0
        k, i, j = rng.integers(len(m)), *rng.integers(d * d, size=2)
        m[k, i, j] = m[k, j, i] = np.nan
        nan[k] = True
    got = _hermitian_trace_norms(m)
    assert got.shape == (len(m),)
    assert np.isnan(got[nan]).all()
    assert np.all(np.abs(got - expected)[~nan] <= 1e-14 * scale[~nan])


def test_hermitian_trace_norms_decompose_only_blocks_above_two(monkeypatch, rng):
    # blocks {0, 1, 2}, {3, 4}, {5, 6}, {7} and the all-zero index {8}:
    # only the first is decomposed
    m = np.zeros((5, 9, 9), dtype=complex)
    for start, size in [(0, 3), (3, 2), (5, 2), (7, 1)]:
        g = random_complex(rng, 5 * size, size).reshape(5, size, size)
        m[:, start : start + size, start : start + size] = g + np.conj(np.swapaxes(g, -1, -2))
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
    got = _hermitian_trace_norms(m)
    assert shapes == [(5, 3, 3)]
    np.testing.assert_allclose(got, np.abs(real(m)).sum(axis=-1), rtol=1e-14)


@given(
    seeds,
    st.sampled_from([2, 3, 4]),
    st.booleans(),
    st.sampled_from(["blocks", "all zero", "dense", "nan", "inf", "inf diagonal"]),
)
def test_trace_norms_through_the_wire2_map_are_those_of_the_transposed_copy(
    seed, d, complex_entries, case
):
    # pt's matrices split into blocks (dense in case "dense"); m is the
    # stack whose wire-2 partial transposes they are
    rng = rng_from(seed)
    pt = block_diagonal_stack(rng, d, complex_entries)
    if case == "all zero":
        pt[:] = 0.0
    if case == "dense":
        g = rng.normal(size=pt.shape)
        if complex_entries:
            g = g + 1j * rng.normal(size=pt.shape)
        pt += g + np.conj(np.swapaxes(g, -1, -2))
    k, i, j = rng.integers(len(pt)), *rng.integers(d * d, size=2)
    if case in ("nan", "inf"):  # a Hermitian entry, at (i, j) and (j, i)
        pt[k, i, j] = pt[k, j, i] = np.nan if case == "nan" else np.inf
    if case == "inf diagonal":
        pt[k, i, i] = -np.inf
    m = _transpose_wire2(pt, d)
    got = _hermitian_trace_norms(m, _wire2_map(d))
    assert np.array_equal(got, _hermitian_trace_norms(_transpose_wire2(m, d)), equal_nan=True)


def test_dense_stack_without_a_map_goes_to_eigvalsh_as_itself(monkeypatch, rng):
    g = random_complex(rng, 12, 4).reshape(3, 4, 4)
    m = g + np.conj(np.swapaxes(g, -1, -2))
    handed = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: handed.append(a) or real(a))
    _hermitian_trace_norms(m)
    assert len(handed) == 1 and handed[0] is m
    del handed[:]
    _hermitian_trace_norms(m, _wire2_map(2))  # the partial transposes, gathered
    assert len(handed) == 1 and np.array_equal(handed[0], _transpose_wire2(m, 2))


def test_wire2_map_is_the_partial_transpose_of_the_flat_indices():
    for d in (2, 3):
        flat = np.arange(d**4)
        m = flat.reshape(d * d, d * d)
        assert np.array_equal(_wire2_map(d), partial_transpose(m, (d, d), 1))
        assert _wire2_map(d) is _wire2_map(d) and not _wire2_map(d).flags.writeable


def test_matrix_rank_values(rng):
    assert matrix_rank(np.eye(4)) == 4
    assert matrix_rank(np.outer(BELL, BELL.conj())) == 1
    assert matrix_rank(np.zeros((4, 4))) == 0
    assert matrix_rank(random_psd(rng, 4, rank=2)) == 2
    with pytest.raises(NotPsd):
        matrix_rank(np.diag([1.0, -1.0]))


def test_matrix_rank_noisy_bell_element_is_full():
    noisy = 0.2 * np.outer(BELL, BELL.conj()) + 0.2 * np.eye(4)  # lam = 0.2
    assert matrix_rank(noisy) == 4


def test_floor_eigh_stack_matches_single_matrices(rng):
    g = random_complex(rng, 6, 2)
    low_rank = g @ g.conj().T  # rank two: four eigenvalues at rounding level
    stack = np.stack([low_rank, np.eye(6), np.zeros((6, 6))])
    w, v = floor_eigh(*np.linalg.eigh(stack))
    assert w.shape == (3, 6) and v.shape == (3, 6, 6)
    assert np.all(w[0, 2:] == 0.0) and np.all(w[0, :2] > 0.0)
    assert np.all(np.diff(w, axis=-1) <= 0.0)
    assert np.all(w[2] == 0.0)
    for k, m in enumerate(stack):
        wk, vk = floor_eigh(*np.linalg.eigh(m))
        np.testing.assert_array_equal(wk, w[k])
        root = sqrt_from_spectrum(w[k], v[k])
        np.testing.assert_allclose(root @ root, m, atol=1e-12)
    np.testing.assert_allclose(sqrt_from_spectrum(w, v)[1], np.eye(6), atol=1e-14)


def test_floor_eigh_zeroes_what_matrix_rank_does_not_count():
    # an eigenvalue at exactly RANK_REL_TOL times the largest is outside the
    # rank, so the floor zeroes it
    m = np.diag([1.0, 1e-10, 0.0, 0.0])
    w, _ = floor_eigh(*np.linalg.eigh(m))
    assert w.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert matrix_rank(m) == 1
