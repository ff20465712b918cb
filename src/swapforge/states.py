"""Validated quantum states, POVMs, and the POVM file format.

A POVM element's floored spectrum comes from its check, the one place
an element stack is decomposed: its own check for a standalone
PovmElement, its Povm's for the elements of a Povm.
Only the PSD square root is computed on first read.  Everything is
read-only after validation, so instances are safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, prod

import numpy as np

from . import linalg
from .errors import (
    BadDimension,
    FileFormatError,
    IncompletePovm,
    InvalidPovm,
    NotPsd,
    ShapeMismatch,
    ValidationFailure,
)
from .linalg import _hermiticity
from .tolerances import COMPLETENESS_TOL, NORM_TOL

__all__ = [
    "DensityMatrix",
    "Povm",
    "PovmElement",
    "PureState",
    "check_povm_stack",
    "max_entangled_state",
    "read_povm",
    "write_povm",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state on an ordered tuple of wires."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = linalg._checked_dims(self.dims, amps.size)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationFailure(f"squared norm {norm_sq!r} is not 1 within {NORM_TOL:.0e}")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "dims", dims)

    @property
    def n_wires(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per wire."""
        return self.amplitudes.reshape(self.dims)

    def reduced(self, keep) -> "DensityMatrix":
        """Reduced density matrix on the kept wires (in the order given)."""
        keep = linalg._checked_wires(keep, self.n_wires)
        rest = [w for w in range(self.n_wires) if w not in keep]
        m = self.tensor().transpose(list(keep) + rest)
        m = m.reshape(prod(self.dims[k] for k in keep), -1)
        return DensityMatrix(m @ m.conj().T, tuple(self.dims[k] for k in keep))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace Hermitian PSD operator on an ordered tuple of wires."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = linalg._square(self.matrix)
        dims = linalg._checked_dims(self.dims, m.shape[0])
        defect, allowed = _hermiticity(m)
        if not defect <= allowed:  # NaN fails here too
            raise ValidationFailure("density matrix is not Hermitian within tolerance")
        linalg._require_psd(np.linalg.eigvalsh(m))
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > NORM_TOL:
            raise ValidationFailure(f"trace {tr!r} is not 1 within {NORM_TOL:.0e}")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "dims", dims)

    @property
    def n_wires(self) -> int:
        return len(self.dims)

    def reduced(self, keep) -> "DensityMatrix":
        return DensityMatrix(
            linalg.partial_trace(self.matrix, self.dims, keep),
            tuple(self.dims[int(k)] for k in keep),
        )


# The POVM rules, one home each; every array is a stack of matrices on
# its last two axes, so one element and many POVMs share the same code.
# The Hermiticity and PSD rules live in linalg, which checks its inputs
# by them too.


def _check_elements(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless each matrix of the (..., D, D) stack is a POVM element:
    d*d square for a local dimension d >= 2, Hermitian within tolerance,
    no eigenvalue below -PSD_TOL.  NaN and infinity fail the Hermiticity
    test.  This is the one place an element stack is decomposed: it
    returns the stack's floored spectrum (linalg.floor_eigh) from the one
    ``eigh`` the PSD rule reads."""
    if m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[-1]
    d = isqrt(dim)
    if d * d != dim or d < 2:
        raise ShapeMismatch(f"element dimension {dim} is not d*d for a local dimension d >= 2")
    defect, allowed = _hermiticity(m)
    if not (defect <= allowed).all():
        raise ValidationFailure("POVM element is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    linalg._require_psd(w)
    return linalg.floor_eigh(w, v)


def _check_completeness(m: np.ndarray) -> None:
    """Raise unless the K elements of each POVM of the (..., K, D, D)
    stack sum to the identity within COMPLETENESS_TOL."""
    deviation = np.abs(m.sum(axis=-3) - np.eye(m.shape[-1])).max(axis=(-2, -1))
    if not (deviation <= COMPLETENESS_TOL).all():
        raise IncompletePovm(
            f"element sum deviates from identity by {deviation.max():.3e} "
            f"(> {COMPLETENESS_TOL:.0e})"
        )


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One PSD measurement operator on a d x d pair of wires.

    ``spectral`` is the floored spectrum (w, v) the element's check
    returns: eigenvalues descending, eigenvectors in the matching
    columns, both read-only.  The PSD square root is kept once computed;
    every protocol formula and the element's class use them.
    """

    matrix: np.ndarray
    spectral: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        m = linalg._square(self.matrix)
        spectrum = _check_elements(m)
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "spectral", _read_only(*spectrum))

    @classmethod
    def _of_checked_stack(cls, m: np.ndarray, w: np.ndarray, v: np.ndarray) -> "PovmElement":
        # m is a read-only row of a stack _check_elements has passed, and
        # (w, v) its read-only floored spectrum
        el = object.__new__(cls)
        object.__setattr__(el, "matrix", m)
        object.__setattr__(el, "spectral", (w, v))
        return el

    @property
    def local_dim(self) -> int:
        return isqrt(self.matrix.shape[0])

    @property
    def dims(self) -> tuple[int, int]:
        d = self.local_dim
        return (d, d)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        return _frozen(linalg.sqrt_from_spectrum(*self.spectral))

    def basis_tensor(self) -> np.ndarray:
        """Eigenvectors as amplitude grids A[k, i, j] over the two local wires."""
        d = self.local_dim
        return self.spectral[1].T.reshape(d * d, d, d)


@dataclass(frozen=True, eq=False)
class Povm:
    """A complete measurement: PSD elements summing to the identity.

    Built from its element matrices (a (K, D, D) array or a sequence of
    D x D matrices) and, optionally, the local dimension they must have.
    The stack is checked once, and the floored spectrum the check
    returns is kept: ``matrices`` is the read-only (K, D, D) stack,
    ``floored_spectrum`` its read-only floored (w, v), and each of
    ``elements`` holds its row of that pair as its ``spectral``.
    """

    matrices: np.ndarray
    local_dim: int | None = None
    floored_spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    elements: tuple[PovmElement, ...] = field(init=False, repr=False)

    def __post_init__(self):
        mats = [np.asarray(m, dtype=complex) for m in self.matrices]
        if not mats:
            raise InvalidPovm("a POVM needs at least one element")
        if any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
            raise ShapeMismatch("POVM elements are not square matrices of one shape")
        stack = _frozen(mats)
        floored = _read_only(*_check_elements(stack))
        d = isqrt(stack.shape[-1])
        # the check passed, so d >= 2: this also rejects a local_dim below 2
        if self.local_dim is not None and int(self.local_dim) != d:
            raise ShapeMismatch("element dimensions disagree with local_dim")
        _check_completeness(stack)
        els = tuple(PovmElement._of_checked_stack(*row) for row in zip(stack, *floored))
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "local_dim", d)
        object.__setattr__(self, "floored_spectrum", floored)
        object.__setattr__(self, "elements", els)

    def __len__(self) -> int:
        return len(self.elements)


def check_povm_stack(stack) -> tuple[np.ndarray, np.ndarray]:
    """The checks Povm makes, for POVMs stacked on the leading axes:
    ``stack`` has shape (..., K, D, D) with element k of each POVM at
    [..., k, :, :].  Raises as PovmElement and Povm do.
    Returns the floored spectrum (w, v) of the check, as Povm keeps it,
    so a caller needing the element roots decomposes nothing."""
    m = np.asarray(stack, dtype=complex)
    if m.ndim < 3:
        raise ShapeMismatch(f"expected a (..., K, D, D) stack, got shape {m.shape}")
    spectrum = _check_elements(m)
    _check_completeness(m)
    return spectrum


def max_entangled_state(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a pair of d-dimensional wires."""
    d = int(d)
    if d < 2:
        raise BadDimension(f"local dimension must be >= 2, got {d}")
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(amps, (d, d))


# ---------------------------------------------------------------------------
# POVM file format: JSON with fields `local_dim` and `elements`, each element
# a D x D row-major matrix of [re, im] pairs.  Entries are written with 17
# significant digits so values round-trip at full double precision.
# ---------------------------------------------------------------------------


def write_povm(povm: Povm, path) -> None:
    def num(x: float) -> str:
        return format(float(x), ".16e")

    rows = []
    for el in povm.elements:
        row_text = [
            "[" + ",".join(f"[{num(v.real)},{num(v.imag)}]" for v in row) + "]"
            for row in el.matrix
        ]
        rows.append("[" + ",".join(row_text) + "]")
    text = '{"local_dim": %d, "elements": [%s]}\n' % (povm.local_dim, ",".join(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_povm(path) -> Povm:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "local_dim" not in doc or "elements" not in doc:
        raise FileFormatError("POVM document needs 'local_dim' and 'elements' fields")
    if type(doc["local_dim"]) is not int:  # not a bool; one that fits no element: ShapeMismatch
        raise FileFormatError(f"local_dim must be an integer, got {doc['local_dim']!r}")
    try:
        mats = []
        for raw in doc["elements"]:
            mat = np.array([[complex(re, im) for re, im in row] for row in raw])
            mats.append(mat)
    except (TypeError, ValueError, OverflowError) as exc:  # complex() of a huge int overflows
        raise FileFormatError(f"malformed element matrix: {exc}") from exc
    if not mats:
        raise FileFormatError("POVM document has no elements")
    try:
        return Povm(mats, local_dim=doc["local_dim"])
    except IncompletePovm as exc:
        raise IncompletePovm(f"POVM file fails validation: {exc}") from exc
    except (ValidationFailure, NotPsd) as exc:
        raise InvalidPovm(f"POVM file fails validation: {exc}") from exc
