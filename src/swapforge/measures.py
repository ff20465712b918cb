"""Entanglement quantifiers: negativity, I-concurrence, trace distance, and a
contraction route to a measurement element's 12|34 concurrence.

Normalization convention: ``negativity`` returns the trace norm of the
partial transpose minus one, so a maximally entangled qubit pair scores 1
and the noisy-Bell branch value is (3*lam - 1)/2 on the entangled side.
This is twice the (||rho^T|| - 1)/2 normalization some references use;
the two differ only by that constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import linalg
from .errors import ShapeMismatch, ZeroTrace
from .states import DensityMatrix, PovmElement, PureState

__all__ = [
    "BipartiteCut",
    "CUT_1_2",
    "CUT_12_34",
    "CUT_14_23",
    "c12_vs_34_contraction",
    "i_concurrence",
    "levi_civita_det4",
    "negativity",
    "trace_distance",
]


@dataclass(frozen=True)
class BipartiteCut:
    """A bipartition of the wire set into left and right blocks."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def check(self, n_wires: int) -> None:
        wires = sorted(self.left + self.right)
        if not self.left or not self.right or wires != list(range(n_wires)):
            raise ShapeMismatch(
                f"cut {self.left}|{self.right} does not partition {n_wires} wires"
            )


CUT_1_2 = BipartiteCut(left=(0,), right=(1,))
CUT_14_23 = BipartiteCut(left=(0, 3), right=(1, 2))
CUT_12_34 = BipartiteCut(left=(0, 1), right=(2, 3))


def negativity(rho: DensityMatrix, cut: BipartiteCut | None = None) -> float:
    """Trace norm of the partial transpose minus one; 0 for PPT states.

    Scaled so that a maximally entangled pair of qubits scores 1.
    """
    if cut is None:
        if rho.n_wires != 2:
            raise ShapeMismatch("negativity needs an explicit cut for more than two wires")
        cut = CUT_1_2
    cut.check(rho.n_wires)
    m = rho.matrix
    for wire in cut.right:
        m = linalg.partial_transpose(m, rho.dims, wire)
    return max(0.0, linalg.trace_norm(m) - 1.0)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims {a.dims} vs {b.dims}")
    return 0.5 * linalg.trace_norm(a.matrix - b.matrix)


def _schmidt_purity(matricized: np.ndarray) -> np.ndarray:
    """tr(rho_left^2) from the Schmidt coefficients of each matricized
    pure state of a (..., left, right) stack.  Squaring the singular-value
    ratios keeps numerically-product states at purity exactly 1, where a
    matrix-product route would leave sqrt-amplified rounding noise.
    Squares are spelled as products, not ``**2``: the array power can be
    a non-correctly-rounded libm pow, and a one-ulp wobble here surfaces
    as a 1e-8 concurrence after the sqrt.

    The reference routes keep this SVD: i_concurrence and classify_stack's
    c12vs34, so that chain's records and the element classes are exact
    at product states.  The run path's stacked branches take the
    Gram route (_gram_concurrence) and come back here only for the rows
    below GRAM_CUTOFF, where that exactness matters."""
    sigma = np.linalg.svd(matricized, compute_uv=False)
    sigma_sq = sigma * sigma
    total = sigma_sq.sum(axis=-1)
    return (sigma_sq * sigma_sq).sum(axis=-1) / (total * total)


def _concurrence(purity, d_left: int):
    """sqrt(D/(D-1) (1 - purity)), clipped at zero, D being the
    left-block dimension: the one home of the I-concurrence formula."""
    value = d_left / (d_left - 1) * (1.0 - purity)
    return np.sqrt(np.maximum(value, 0.0))


def _pure_concurrence(matricized: np.ndarray) -> np.ndarray:
    """sqrt(D/(D-1) (1 - tr rho_left^2)) for each matricized pure state of
    a (..., D, right) stack, D being the left-block dimension."""
    return _concurrence(_schmidt_purity(matricized), matricized.shape[-2])


# Gram-route I-concurrences below this are recomputed by the SVD.  Near a
# product state 1 - P is a difference of nearly equal numbers, and the sqrt
# amplifies its rounding: against the SVD, on 4,000 random states each at
# D = 4, 9 and 16 (Schmidt weights 1 - eps and eps spread over the rest,
# eps log-uniform in [1e-18, 1]), the Gram route is off by at most 3.7e-15
# for C >= 0.1 and 7.7e-15 for 0.05 <= C < 0.1, but by up to 4.3e-12 for
# 1e-4 <= C < 1e-2 and 3.4e-8 below 1e-4, while the SVD gives a product
# state exactly 0.  A fixed property of the two routes, not a tolerance.
GRAM_CUTOFF = 0.1


def _gram_concurrence(gram: np.ndarray, matricized: np.ndarray) -> np.ndarray:
    """_pure_concurrence of an (N, D, right) stack of matricized pure
    states from their (N, n, n) Gram matrices G (either side's reduced
    state, unnormalized): purity sum|G|^2 / (tr G)^2, without an SVD.
    Rows whose value falls below GRAM_CUTOFF take the SVD route, so they
    equal _pure_concurrence bit for bit."""
    gram_sq = (gram.real * gram.real + gram.imag * gram.imag).sum(axis=(-2, -1))
    tr = np.trace(gram, axis1=-2, axis2=-1).real
    c = _concurrence(gram_sq / (tr * tr), matricized.shape[-2])
    low = np.flatnonzero(c < GRAM_CUTOFF)
    if low.size:
        c[low] = _pure_concurrence(matricized[low])
    return c


def i_concurrence(psi: PureState, cut: BipartiteCut) -> float:
    """sqrt(D/(D-1) (1 - tr rho_left^2)) with D the left-block dimension.

    Zero exactly when the pure state is a product across the cut; 1 when
    the left block is maximally mixed.
    """
    cut.check(psi.n_wires)
    rest = [w for w in range(psi.n_wires) if w not in cut.left]
    d_left = int(np.prod([psi.dims[w] for w in cut.left]))
    m = psi.tensor().transpose(list(cut.left) + rest).reshape(d_left, -1)
    return float(_pure_concurrence(m))


# ---------------------------------------------------------------------------
# c12vs34 by contraction: verify check 9's second path to the classifier's.
# ---------------------------------------------------------------------------


_C12_PURITY = "a,b,c,e,aij,akl,bpj,bql,cpr,cqs,eir,eks->"


@lru_cache(maxsize=None)
def _c12_path(d: int) -> tuple:
    """The greedy contraction order of _C12_PURITY at local dimension d,
    searched once: the operand shapes depend on d alone."""
    w, a = np.ones(d * d), np.ones((d * d, d, d))
    return tuple(np.einsum_path(_C12_PURITY, *(w,) * 4, *(a,) * 8, optimize="greedy")[0])


def c12_vs_34_contraction(el: PovmElement) -> float:
    """Independent second path for the classifier's c12vs34: the explicit
    eight-index contraction of the (1,2)-pair purity over the element's
    eigenbasis amplitude grids, without forming any intermediate state."""
    tr = el.trace
    if tr <= 0.0:
        raise ZeroTrace("c12vs34 undefined for a traceless element")
    wgt = np.sqrt(el.spectral[0])
    a = el.basis_tensor()
    operands = (wgt,) * 4 + (a.conj(), a, a, a.conj(), a.conj(), a, a, a.conj())
    purity = np.einsum(_C12_PURITY, *operands, optimize=_c12_path(el.local_dim))
    return float(_concurrence(float(purity.real) / tr ** 2, el.local_dim ** 2))


# ---------------------------------------------------------------------------
# Levi-Civita determinant: verify check 9's Y path, against numpy's det.
# ---------------------------------------------------------------------------

_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _sign = 1
    _p = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign
_EPS4.setflags(write=False)


def levi_civita_det4(u: np.ndarray) -> complex:
    """Determinant of a 4x4 matrix as the explicit epsilon-contraction
    over its four rows."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ShapeMismatch(f"expected a 4x4 matrix, got {u.shape}")
    return complex(np.einsum("efgh,e,f,g,h->", _EPS4, u[0], u[1], u[2], u[3]))
