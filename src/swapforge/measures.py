"""Entanglement quantifiers: negativity, I-concurrence, PPT tests, and the
per-element bipartition concurrences of the swap protocol.

Normalization convention: ``negativity`` returns the trace norm of the
partial transpose minus one, so a maximally entangled qubit pair scores 1
and the noisy-Bell branch value is (3*lam - 1)/2 on the entangled side.
This is twice the (||rho^T|| - 1)/2 normalization some references use;
the two differ only by that constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import linalg
from .errors import DegenerateDenominator, ShapeMismatch, ZeroTrace
from .states import DensityMatrix, PovmElement, PureState
from .tolerances import PPT_TOL

__all__ = [
    "BipartiteCut",
    "CUT_1_2",
    "CUT_12_34",
    "CUT_14_23",
    "ClosedFormResult",
    "c12_vs_34",
    "c12_vs_34_contraction",
    "c14_vs_23",
    "element_swap_state",
    "i_concurrence",
    "is_ppt",
    "levi_civita_det4",
    "negativity",
    "negativity_closed_form",
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


def _transpose_right(rho: DensityMatrix, cut: BipartiteCut) -> np.ndarray:
    cut.check(rho.n_wires)
    m = rho.matrix
    for wire in cut.right:
        m = linalg.partial_transpose(m, rho.dims, wire)
    return m


def negativity(rho: DensityMatrix, cut: BipartiteCut | None = None) -> float:
    """Trace norm of the partial transpose minus one; 0 for PPT states.

    Scaled so that a maximally entangled pair of qubits scores 1.
    """
    if cut is None:
        if rho.n_wires != 2:
            raise ShapeMismatch("negativity needs an explicit cut for more than two wires")
        cut = CUT_1_2
    value = linalg.trace_norm(_transpose_right(rho, cut)) - 1.0
    return max(0.0, value)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims {a.dims} vs {b.dims}")
    return 0.5 * linalg.trace_norm(a.matrix - b.matrix)


def is_ppt(rho: DensityMatrix, cut: BipartiteCut | None = None, ppt_tol: float = PPT_TOL) -> bool:
    """True when the partial transpose has no eigenvalue below -ppt_tol."""
    if cut is None:
        if rho.n_wires != 2:
            raise ShapeMismatch("is_ppt needs an explicit cut for more than two wires")
        cut = CUT_1_2
    w = np.linalg.eigvalsh(_transpose_right(rho, cut))
    return bool(w[0] >= -ppt_tol)


def _schmidt_purity(matricized: np.ndarray) -> np.ndarray:
    """tr(rho_left^2) from the Schmidt coefficients of each matricized
    pure state of a (..., left, right) stack.  Squaring the singular-value
    ratios keeps numerically-product states at purity exactly 1, where a
    matrix-product route would leave sqrt-amplified rounding noise.
    Squares are spelled as products, not ``**2``: the array power can be
    a non-correctly-rounded libm pow, and a one-ulp wobble here surfaces
    as a 1e-8 concurrence after the sqrt."""
    sigma = np.linalg.svd(matricized, compute_uv=False)
    sigma_sq = sigma * sigma
    total = sigma_sq.sum(axis=-1)
    return (sigma_sq * sigma_sq).sum(axis=-1) / (total * total)


def _pure_concurrence(matricized: np.ndarray) -> np.ndarray:
    """sqrt(D/(D-1) (1 - tr rho_left^2)) for each matricized pure state of
    a (..., D, right) stack, D being the left-block dimension."""
    d_left = matricized.shape[-2]
    value = d_left / (d_left - 1) * (1.0 - _schmidt_purity(matricized))
    return np.sqrt(np.maximum(value, 0.0))


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
# Per-element bipartition concurrences of the swap round.
# ---------------------------------------------------------------------------


def _state_tensor(el: PovmElement) -> np.ndarray:
    """Unnormalized post-measurement amplitudes T[w1, w4, w2, w3].

    T = sum_k sqrt(pi_k) conj(A_k)[w1, w4] A_k[w2, w3] built from the
    element's spectral data; its squared norm is tr(element).
    """
    w = el.spectral.eigenvalues
    a = el.basis_tensor()
    return np.einsum("a,aij,akl->ijkl", np.sqrt(w), a.conj(), a)


def element_swap_state(el: PovmElement) -> PureState:
    """Normalized four-wire state after measuring ``el`` on wires (2,3)
    of two maximally entangled pairs, stored in wire order (1,2,3,4)."""
    if el.trace <= 0.0:
        raise ZeroTrace("post-measurement state undefined for a traceless element")
    t = _state_tensor(el)
    psi = np.transpose(t, (0, 2, 3, 1)).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    d = el.local_dim
    return PureState(psi, (d, d, d, d))


def c14_vs_23(el: PovmElement) -> float:
    """Closed-form 14|23 concurrence of the post-measurement state:
    sqrt(D/(D-1) (1 - sum pi^2 / (sum pi)^2)) from the element eigenvalues."""
    if el.trace <= 0.0:
        raise ZeroTrace("c14_vs_23 undefined for a traceless element")
    w = el.spectral.eigenvalues
    tr = float(w.sum())  # spectral trace keeps the ratio exact for rank-1 inputs
    dsq = el.local_dim ** 2
    value = dsq / (dsq - 1) * (1.0 - float((w * w).sum()) / (tr * tr))
    return float(np.sqrt(max(value, 0.0)))


def c12_vs_34(el: PovmElement) -> float:
    """12|34 concurrence of the post-measurement state (inseparability of
    the element as an operation), via the reduced-purity route."""
    tr = el.trace
    if tr <= 0.0:
        raise ZeroTrace("c12_vs_34 undefined for a traceless element")
    t = _state_tensor(el)  # layout (w1, w4, w2, w3)
    d = el.local_dim
    m = t.transpose(0, 2, 3, 1).reshape(d * d, d * d)  # (w1,w2) | (w3,w4)
    return float(_pure_concurrence(m))


def c12_vs_34_contraction(el: PovmElement) -> float:
    """Independent second path for c12_vs_34: the explicit eight-index
    contraction of the (1,2)-pair purity over the element's eigenbasis
    amplitude grids, without forming any intermediate state."""
    tr = el.trace
    if tr <= 0.0:
        raise ZeroTrace("c12_vs_34 undefined for a traceless element")
    wgt = np.sqrt(el.spectral.eigenvalues)
    a = el.basis_tensor()
    purity = np.einsum(
        "a,b,c,e,aij,akl,bpj,bql,cpr,cqs,eir,eks->",
        wgt, wgt, wgt, wgt,
        a.conj(), a, a, a.conj(), a.conj(), a, a, a.conj(),
        optimize=True,
    )
    purity = float(purity.real) / tr ** 2
    dsq = el.local_dim ** 2
    value = dsq / (dsq - 1) * (1.0 - purity)
    return float(np.sqrt(max(value, 0.0)))


# ---------------------------------------------------------------------------
# Closed-form negativity diagnostic for two-qubit states.
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


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form negativity estimate and its deviation from the
    eigenvalue route.  ``value`` uses the same normalization as
    ``negativity``; it is a diagnostic, not a trusted result: the
    two-by-two square-root identity it rests on is not exact for the
    4x4 matrix U, so ``deviation`` is generally nonzero."""

    value: float
    oracle: float
    deviation: float
    x: float
    y: float


def negativity_closed_form(rho: DensityMatrix) -> ClosedFormResult:
    """Evaluate the closed-form negativity of a two-qubit state.

    Builds U = (rho^T_B)^dagger rho^T_B, takes X = tr U and Y = det U
    (via the Levi-Civita contraction), and reports
    (X + 4 sqrt(Y)) / sqrt(X + 2 sqrt(Y)) - 1 next to the eigenvalue
    negativity and their absolute difference.
    """
    if rho.dims != (2, 2):
        raise ShapeMismatch(f"closed form is defined for two qubits, got dims {rho.dims}")
    m = linalg.partial_transpose(rho.matrix, rho.dims, 1)
    u = m.conj().T @ m
    x = float(np.trace(u).real)
    y = float(levi_civita_det4(u).real)
    sqrt_y = np.sqrt(max(y, 0.0))
    denom_sq = x + 2.0 * sqrt_y
    if denom_sq <= 0.0:
        raise DegenerateDenominator("X + 2 sqrt(Y) vanished; input is the zero matrix")
    value = (x + 4.0 * sqrt_y) / np.sqrt(denom_sq) - 1.0
    oracle = negativity(rho, CUT_1_2)
    return ClosedFormResult(
        value=float(value),
        oracle=oracle,
        deviation=float(abs(value - oracle)),
        x=x,
        y=y,
    )
