"""Validated quantum states, POVMs, and the POVM file format.

POVM elements compute their spectral decomposition and PSD square root on
first read; the elements of ``Povm.from_matrices`` (every family, sampled
and file POVM) get theirs from the ``eigh`` of their Povm's check instead.
Everything is read-only after validation, so instances are safe to share
across threads.
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
from .linalg import HermitianSpectrum, _hermiticity
from .tolerances import COMPLETENESS_TOL, NORM_TOL, PSD_TOL

__all__ = [
    "DensityMatrix",
    "Povm",
    "PovmElement",
    "PureState",
    "check_povm_stack",
    "conjugate_computational",
    "max_entangled_state",
    "read_povm",
    "write_povm",
]


def conjugate_computational(m: np.ndarray) -> np.ndarray:
    """Entrywise complex conjugate (conjugation in the computational basis)."""
    return np.conj(np.asarray(m, dtype=complex))


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
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise BadDimension(f"every local dimension must be >= 2, got {dims}")
        if prod(dims) != amps.size:
            raise ShapeMismatch(f"dims {dims} do not factor a {amps.size}-amplitude vector")
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
        keep = tuple(int(k) for k in keep)
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
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise BadDimension(f"every local dimension must be >= 2, got {dims}")
        if prod(dims) != m.shape[0]:
            raise ShapeMismatch(f"dims {dims} do not factor dimension {m.shape[0]}")
        defect, allowed = _hermiticity(m)
        if not defect <= allowed:  # NaN fails here too
            raise ValidationFailure("density matrix is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise NotPsd(f"min eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}")
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
# The Hermiticity rule lives in linalg, which checks its inputs by it too.


def _check_elements(m: np.ndarray, vectors: bool = False):
    """Raise unless each matrix of the (..., D, D) stack is a POVM element:
    d*d square for a local dimension d >= 2, Hermitian within tolerance,
    no eigenvalue below -PSD_TOL.  NaN and infinity fail the Hermiticity
    test.  Returns the ascending eigenvalues the PSD rule reads, and their
    eigenvectors from the same ``eigh`` if ``vectors`` is set (else None)."""
    if m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[-1]
    d = isqrt(dim)
    if d * d != dim or d < 2:
        raise ShapeMismatch(f"element dimension {dim} is not d*d for a local dimension d >= 2")
    defect, allowed = _hermiticity(m)
    if not (defect <= allowed).all():
        raise ValidationFailure("POVM element is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    low = w[..., 0]
    if not (low >= -PSD_TOL).all():
        raise NotPsd(f"min eigenvalue {low.min():.3e} below -{PSD_TOL:.0e}")
    return w, v


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

    The spectral decomposition (seeded by ``Povm.from_matrices``) and the
    PSD square root are kept once computed; every protocol formula uses them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
        _check_elements(m)
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def _checked(cls, m: np.ndarray) -> "PovmElement":
        # for a read-only complex matrix _check_elements has already passed
        el = object.__new__(cls)
        object.__setattr__(el, "matrix", m)
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
    def spectral(self) -> HermitianSpectrum:
        # Eigenvalues below the rank-detection floor are exact zeros here.
        w, v = _read_only(*linalg.floored_psd_eigh(self.matrix))
        return HermitianSpectrum(eigenvalues=w, eigenvectors=v)

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        spec = self.spectral
        return _frozen(linalg.sqrt_from_spectrum(spec.eigenvalues, spec.eigenvectors))

    def basis_tensor(self) -> np.ndarray:
        """Eigenvectors as amplitude grids A[k, i, j] over the two local wires."""
        d = self.local_dim
        return self.spectral.eigenvectors.T.reshape(d * d, d, d)


@dataclass(frozen=True, eq=False)
class Povm:
    """A complete measurement: PSD elements summing to the identity.

    ``matrices`` is the read-only (K, D, D) element stack, ``spectrum``
    its read-only ascending ``eigh`` (w, v), decomposed once, and
    ``floored_spectrum`` that ``eigh`` floored once (linalg.floor_eigh):
    ``from_matrices`` keeps the ``eigh`` of its PSD check and its floor,
    and seeds every element's ``spectral`` with views of the floored pair;
    a Povm built from elements takes both on first read.
    """

    elements: tuple[PovmElement, ...]
    local_dim: int
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        els = tuple(self.elements)
        if not els:
            raise InvalidPovm("a POVM needs at least one element")
        d = int(self.local_dim)
        # elements have a local dimension >= 2, so this also rejects local_dim < 2
        if any(el.local_dim != d for el in els):
            raise ShapeMismatch("element dimensions disagree with local_dim")
        stack = _frozen([el.matrix for el in els])
        _check_completeness(stack)
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "local_dim", d)
        object.__setattr__(self, "matrices", stack)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(*np.linalg.eigh(self.matrices))

    @cached_property
    def floored_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(*linalg.floor_eigh(*self.spectrum))

    @classmethod
    def from_matrices(cls, matrices, local_dim: int | None = None) -> "Povm":
        """Build a Povm from element matrices, checking them as one stack."""
        mats = [np.asarray(m, dtype=complex) for m in matrices]
        if not mats:
            raise InvalidPovm("a POVM needs at least one element")
        if any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
            raise ShapeMismatch("POVM elements are not square matrices of one shape")
        stack = _frozen(mats)
        w, v = _read_only(*_check_elements(stack, vectors=True))
        els = tuple(PovmElement._checked(m) for m in stack)
        d = local_dim if local_dim is not None else els[0].local_dim
        povm = cls(elements=els, local_dim=d)
        povm.__dict__["spectrum"] = (w, v)  # the cached_properties' slots
        floored = povm.__dict__["floored_spectrum"] = _read_only(*linalg.floor_eigh(w, v))
        for el, fw, fv in zip(els, *floored):
            el.__dict__["spectral"] = HermitianSpectrum(eigenvalues=fw, eigenvectors=fv)
        return povm

    def __len__(self) -> int:
        return len(self.elements)


def check_povm_stack(stack) -> tuple[np.ndarray, np.ndarray]:
    """The checks Povm.from_matrices makes, for POVMs stacked on the
    leading axes: ``stack`` has shape (..., K, D, D) with element k of
    each POVM at [..., k, :, :].  Raises as PovmElement and Povm do.
    Returns the ascending (eigenvalues, eigenvectors) of the one ``eigh``
    the PSD rule reads, so a caller needing them decomposes once."""
    m = np.asarray(stack, dtype=complex)
    if m.ndim < 3:
        raise ShapeMismatch(f"expected a (..., K, D, D) stack, got shape {m.shape}")
    spectrum = _check_elements(m, vectors=True)
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
        return Povm.from_matrices(mats, local_dim=doc["local_dim"])
    except IncompletePovm as exc:
        raise IncompletePovm(f"POVM file fails validation: {exc}") from exc
    except (ValidationFailure, NotPsd) as exc:
        raise InvalidPovm(f"POVM file fails validation: {exc}") from exc
