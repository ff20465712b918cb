"""Dense complex linear algebra on small multipartite systems.

Matrices are plain numpy arrays in row-major Kronecker convention: for
local dimensions ``dims = (d0, d1, ...)`` the composite basis index is
``i0*d1*d2*... + i1*d2*... + ...`` with wire 0 most significant.  All
functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BadIndex, NotHermitian, NotPsd, ShapeMismatch
from .tolerances import HERM_TOL, PSD_TOL, RANK_REL_TOL

__all__ = [
    "HermitianSpectrum",
    "floored_psd_eigh",
    "hermiticity_defect",
    "hermitian_eig",
    "kron",
    "matrix_rank",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "psd_sqrt",
    "psd_sqrt_closed_2x2",
    "sqrt_from_spectrum",
    "trace_norm",
]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; subsystem dimension lists concatenate."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _checked_dims(m: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ShapeMismatch(f"every local dimension must be >= 2, got {dims}")
    if prod(dims) != m.shape[0]:
        raise ShapeMismatch(
            f"dims {dims} (product {prod(dims)}) do not factor dimension {m.shape[0]}"
        )
    return dims


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every wire not in ``keep``.

    The reduced operator keeps the wires in the order they appear in
    ``keep``; an empty ``keep`` yields the 1x1 full trace.
    """
    m = _square(m)
    dims = _checked_dims(m, dims)
    n = len(dims)
    keep = tuple(int(k) for k in keep)
    if len(set(keep)) != len(keep):
        raise BadIndex(f"keep={keep} repeats a wire")
    if any(k < 0 or k >= n for k in keep):
        raise BadIndex(f"keep={keep} out of range for {n} wires")
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
    dims = _checked_dims(m, dims)
    n = len(dims)
    sub = int(sub)
    if not 0 <= sub < n:
        raise BadIndex(f"wire {sub} out of range for {n} wires")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[sub], axes[sub + n] = axes[sub + n], axes[sub]
    return t.transpose(axes).reshape(m.shape).copy()


def permute_subsystems(m: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder wires so that output wire k carries input wire ``perm[k]``."""
    m = _square(m)
    dims = _checked_dims(m, dims)
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise BadIndex(f"perm={perm} is not a permutation of {n} wires")
    t = m.reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    return t.transpose(axes).reshape(m.shape).copy()


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| over entries."""
    m = _square(m)
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def _require_hermitian(m: np.ndarray, herm_tol: float = HERM_TOL) -> None:
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    defect = hermiticity_defect(m)
    if defect > herm_tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {herm_tol:.0e}*{scale:.3g}")


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Eigenvalues in descending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, herm_tol: float = HERM_TOL) -> HermitianSpectrum:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending."""
    m = _square(m)
    _require_hermitian(m, herm_tol)
    w, v = np.linalg.eigh(m)
    w = np.ascontiguousarray(w[::-1].real)
    v = np.ascontiguousarray(v[:, ::-1])
    w.setflags(write=False)
    v.setflags(write=False)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def floored_psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of PSD matrices stacked on the leading axes of ``m``
    (shape (..., D, D)): eigenvalues descending, clipped at zero, and
    those below RANK_REL_TOL times the largest set to exactly zero, with
    the matching eigenvector columns.

    Anything matrix_rank would not count must not leak sqrt-amplified
    noise into branch states, so every POVM element's square root, one
    at a time or stacked, takes its spectrum from here.
    """
    w, v = np.linalg.eigh(m)
    w = np.clip(w[..., ::-1], 0.0, None)
    top = w[..., :1]
    w = np.where((top > 0.0) & (w < RANK_REL_TOL * top), 0.0, w)
    return w, np.ascontiguousarray(v[..., ::-1])


def sqrt_from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(sqrt(w)) V^dagger for spectra stacked on leading axes."""
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def psd_sqrt(m: np.ndarray, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian PSD square root via the spectral decomposition.

    Eigenvalues in [-psd_tol, 0) are clamped to zero so spectral noise
    from upstream products cannot poison the root.
    """
    spec = hermitian_eig(m)
    w = spec.eigenvalues
    if w.size and w[-1] < -psd_tol:
        raise NotPsd(f"min eigenvalue {w[-1]:.3e} below -{psd_tol:.0e}")
    w = np.clip(w, 0.0, None)
    v = spec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def psd_sqrt_closed_2x2(m: np.ndarray, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Closed-form square root of a 2x2 Hermitian PSD matrix.

    sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)); the zero
    matrix maps to the zero matrix.
    """
    m = _square(m)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"closed form is defined for 2x2 matrices, got {m.shape}")
    _require_hermitian(m)
    w = np.linalg.eigvalsh(m)
    if w[0] < -psd_tol:
        raise NotPsd(f"min eigenvalue {w[0]:.3e} below -{psd_tol:.0e}")
    tr = float(np.trace(m).real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    root = np.sqrt(max(det, 0.0))
    denom_sq = tr + 2.0 * root
    if denom_sq <= psd_tol:
        return np.zeros_like(m)
    return (m + root * np.eye(2)) / np.sqrt(denom_sq)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = _square(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def matrix_rank(
    m: np.ndarray, rel_tol: float = RANK_REL_TOL, psd_tol: float = PSD_TOL
) -> int:
    """Count of eigenvalues above rel_tol times the largest; 0 for the zero matrix."""
    spec = hermitian_eig(m)
    w = spec.eigenvalues
    if w.size and w[-1] < -psd_tol:
        raise NotPsd(f"min eigenvalue {w[-1]:.3e} below -{psd_tol:.0e}")
    if w.size == 0 or w[0] <= psd_tol:
        return 0
    return int(np.count_nonzero(w > rel_tol * w[0]))
