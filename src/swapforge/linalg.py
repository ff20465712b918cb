"""Dense complex linear algebra on small multipartite systems.

Matrices are plain numpy arrays in row-major Kronecker convention: for
local dimensions ``dims = (d0, d1, ...)`` the composite basis index is
``i0*d1*d2*... + i1*d2*... + ...`` with wire 0 most significant.  All
functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod

import numpy as np

from .errors import BadDimension, BadIndex, NotHermitian, NotPsd, ShapeMismatch
from .tolerances import HERM_TOL, PSD_TOL, RANK_REL_TOL

__all__ = [
    "floor_eigh",
    "matrix_rank",
    "partial_trace",
    "partial_transpose",
    "psd_sqrt",
    "psd_sqrt_closed_2x2",
    "sqrt_from_spectrum",
    "trace_norm",
]


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _integer(value, error: type[Exception], what: str) -> int:
    try:  # ints and numpy integers pass; a float is not truncated
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _checked_dims(dims, size: int) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; raises BadDimension for a non-integer
    or below-2 local dimension, ShapeMismatch unless they factor ``size``."""
    dims = tuple(_integer(d, BadDimension, "local dimension") for d in dims)
    if any(d < 2 for d in dims):
        raise BadDimension(f"every local dimension must be >= 2, got {dims}")
    if prod(dims) != size:
        raise ShapeMismatch(f"dims {dims} (product {prod(dims)}) do not factor dimension {size}")
    return dims


def _local_dim(d) -> int:
    """``d`` as an int by _checked_dims's rule; raises BadDimension unless
    it is an integer >= 2 (a float is not truncated)."""
    return _checked_dims((d,), d)[0]


def _checked_wires(keep, n: int) -> tuple[int, ...]:
    """``keep`` as a tuple of ints; raises BadIndex unless it names
    distinct wires of an n-wire system."""
    keep = tuple(_integer(k, BadIndex, "wire") for k in keep)
    if len(set(keep)) != len(keep):
        raise BadIndex(f"keep={keep} repeats a wire")
    if any(k < 0 or k >= n for k in keep):
        raise BadIndex(f"keep={keep} out of range for {n} wires")
    return keep


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every wire not in ``keep``.

    The reduced operator keeps the wires in the order they appear in
    ``keep``; an empty ``keep`` yields the 1x1 full trace.
    """
    m = _square(m)
    dims = _checked_dims(dims, m.shape[0])
    n = len(dims)
    keep = _checked_wires(keep, n)
    drop = [w for w in range(n) if w not in keep]
    t = m.reshape(dims + dims)
    order = list(keep) + drop + [k + n for k in keep] + [w + n for w in drop]
    t = t.transpose(order)
    d_keep = prod(dims[k] for k in keep) if keep else 1
    d_drop = prod(dims[w] for w in drop) if drop else 1
    t = t.reshape(d_keep, d_drop, d_keep, d_drop)
    return np.einsum("abcb->ac", t)


def partial_transpose(m: np.ndarray, dims, sub: int) -> np.ndarray:
    """Transpose a single wire; applying it twice returns the input."""
    m = _square(m)
    dims = _checked_dims(dims, m.shape[0])
    n = len(dims)
    sub = _integer(sub, BadIndex, "wire")
    if not 0 <= sub < n:
        raise BadIndex(f"wire {sub} out of range for {n} wires")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[sub], axes[sub + n] = axes[sub + n], axes[sub]
    return t.transpose(axes).reshape(m.shape).copy()


def _hermiticity(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity defect max|M - M^dagger| of each matrix of a (..., D, D)
    stack, and the defect it may have: HERM_TOL * max(1, max|M|).  A
    stack holding a NaN or infinite entry gets NaN defects, which fail
    every ``defect <= allowed`` test."""
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    allowed = HERM_TOL * np.fmax(scale, 1.0)
    if not np.isfinite(scale).all():  # and inf - inf would warn below
        return np.full_like(scale, np.nan), allowed
    with np.errstate(over="ignore"):  # a defect beyond the float range is inf, and fails
        return np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0), allowed


def _require_hermitian(m: np.ndarray) -> None:
    defect, allowed = _hermiticity(m)
    if not defect <= allowed:  # NaN fails here too
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {allowed:.3g}")


def _require_psd(w: np.ndarray) -> None:
    """Raise NotPsd if an ascending spectrum of the (..., D) stack ``w``
    has an eigenvalue below -PSD_TOL."""
    low = w[..., :1]
    if not (low >= -PSD_TOL).all():
        raise NotPsd(f"min eigenvalue {low.min():.3e} below -{PSD_TOL:.0e}")


def floor_eigh(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The floored spectra of PSD matrices stacked on the leading axes,
    from their ascending ``eigh`` (w, v): eigenvalues descending, clipped
    at zero, and those at or below RANK_REL_TOL times the largest set to
    exactly zero, with the matching eigenvector columns.

    The floor removes exactly what matrix_rank does not count, so no
    uncounted eigenvalue leaks sqrt-amplified noise into a branch state.
    The element checks are its callers (states._check_elements, and
    states.check_spectrum_stack for a closed-form spectrum): every
    element root and element class reads the pair a check returns.
    """
    w = np.clip(w[..., ::-1], 0.0, None)  # a copy, so it is floored in place
    top = w[..., :1]
    w[(top > 0.0) & (w <= RANK_REL_TOL * top)] = 0.0
    return w, np.ascontiguousarray(v[..., ::-1])


def _transpose_wire2(m: np.ndarray, d: int) -> np.ndarray:
    """Partial transpose of wire 2 of each (d*d, d*d) matrix of a stack
    on the leading axes."""
    return m.reshape(m.shape[:-2] + (d, d, d, d)).swapaxes(-3, -1).reshape(m.shape)


@lru_cache(maxsize=None)
def _wire2_map(d: int) -> np.ndarray:
    """The read-only map with _transpose_wire2(m, d) == m.ravel()[map] for a (d*d, d*d) m."""
    index = _transpose_wire2(np.arange(d**4).reshape(d * d, d * d), d)
    index.setflags(write=False)
    return index


def _hermitian_trace_norms(m: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Trace norm (the sum of |eigenvalues|) of each Hermitian matrix of a
    (..., D, D) stack or, given a (D, D) map ``index`` of flat indices
    (_wire2_map), of the matrices m.reshape(..., D*D)[..., index], read
    through the map with no permuted copy of the stack.

    Block by block, as a matrix's spectrum is the union of its blocks':
    the connected components of the entries (symmetrized) not exactly zero
    in some matrix of the stack.  A 1x1 block [a] adds |a|, a 2x2 block
    [[a, b], [b*, c]] adds |e+| + |e-| = max(|a + c|, hypot(a - c, 2|b|)),
    a larger one the sum of |eigvalsh| of its gathered sub-stack; a dense
    stack is one eigvalsh call, on m itself if there is no map.  The
    values, as eigvalsh's, come from the real part of the diagonal and the
    lower triangle; a NaN or infinite entry gives NaN or inf, never a
    finite value.
    """
    dim = m.shape[-1]
    flat = m.reshape(m.shape[:-2] + (dim * dim,))
    at = np.arange(dim * dim).reshape(dim, dim) if index is None else index
    reach = flat.reshape(-1, dim * dim).any(axis=0)[at]  # a NaN is not zero either
    if reach.all():  # dense: one block, m itself if there is no map
        return _block_trace_norms(flat, at, m if index is None else None)
    reach |= reach.T
    np.fill_diagonal(reach, True)
    for _ in range(dim.bit_length()):  # each product doubles the path length reached
        reach = reach @ reach
    lowest = reach.argmax(axis=1)  # each index's block, named by its lowest index
    blocks = (np.flatnonzero(lowest == b) for b in np.flatnonzero(lowest == np.arange(dim)))
    return sum(_block_trace_norms(flat, at[idx[:, None], idx]) for idx in blocks)


def _block_trace_norms(flat: np.ndarray, at: np.ndarray, block: np.ndarray | None = None):
    """Trace norms of flat[..., at] (``block``, if given); see _hermitian_trace_norms."""
    if len(at) == 1:
        return np.abs(flat[..., at[0, 0]].real)
    if len(at) == 2:
        a, c = flat[..., at[0, 0]].real, flat[..., at[1, 1]].real
        return np.maximum(np.abs(a + c), np.hypot(a - c, 2.0 * np.abs(flat[..., at[1, 0]])))
    block = flat[..., at] if block is None else block
    if np.isfinite(block).all():
        return np.abs(np.linalg.eigvalsh(block)).sum(axis=-1)
    # eigvalsh may give a finite spectrum for a NaN entry, or fail on it
    finite = np.isfinite(block).all(axis=(-2, -1))
    clean = np.where(finite[..., None, None], block, 0.0)
    return np.where(finite, np.abs(np.linalg.eigvalsh(clean)).sum(axis=-1), np.nan)


def sqrt_from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(sqrt(w)) V^dagger for spectra stacked on leading axes; v's
    leading axes broadcast against w's, so G spectra may share one table.
    V^dagger is made contiguous: a transposed operand makes the batched
    product about 2x slower on the sweep's stacks."""
    return (v * np.sqrt(w)[..., None, :]) @ np.ascontiguousarray(np.swapaxes(v, -1, -2).conj())


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via the spectral decomposition.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero so spectral noise
    from upstream products cannot poison the root.
    """
    m = _square(m)
    _require_hermitian(m)
    w, v = np.linalg.eigh(m)
    _require_psd(w)
    w, v = np.clip(w[::-1], 0.0, None), v[:, ::-1]  # largest first
    return (v * np.sqrt(w)) @ v.conj().T


def psd_sqrt_closed_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form square root of a 2x2 Hermitian PSD matrix.

    sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)); the zero
    matrix maps to the zero matrix.
    """
    m = _square(m)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"closed form is defined for 2x2 matrices, got {m.shape}")
    _require_hermitian(m)
    _require_psd(np.linalg.eigvalsh(m))
    tr = float(np.trace(m).real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    root = np.sqrt(max(det, 0.0))
    denom_sq = tr + 2.0 * root
    if denom_sq <= PSD_TOL:
        return np.zeros_like(m)
    return (m + root * np.eye(2)) / np.sqrt(denom_sq)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = _square(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def matrix_rank(m: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Count of eigenvalues above rel_tol times the largest; 0 for the zero matrix."""
    m = _square(m)
    _require_hermitian(m)
    w = np.linalg.eigh(m)[0]
    _require_psd(w)
    if w.size == 0 or w[-1] <= PSD_TOL:
        return 0
    return int(np.count_nonzero(w > rel_tol * w[-1]))
