"""Validated quantum states, POVMs, and the POVM file format.

A POVM element's floored spectrum comes from its check: its own for a
standalone PovmElement, its Povm's for the elements of a Povm (one eigh
of a matrix stack, none of a family's closed-form spectrum).
Only a Povm's element rows and the PSD square root are computed on
first read.  Everything is read-only after validation, so instances are
safe to share across threads.
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
from .tolerances import COMPLETENESS_TOL, HERM_TOL, NORM_TOL

__all__ = [
    "DensityMatrix",
    "Povm",
    "PovmElement",
    "PureState",
    "check_povm_stack",
    "check_spectrum_stack",
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
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails here too
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
        if not abs(tr - 1.0) <= NORM_TOL:  # NaN fails here too
            raise ValidationFailure(f"trace {tr!r} is not 1 within {NORM_TOL:.0e}")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "dims", dims)

    @property
    def n_wires(self) -> int:
        return len(self.dims)

    def reduced(self, keep) -> "DensityMatrix":
        keep = linalg._checked_wires(keep, self.n_wires)
        return DensityMatrix(
            linalg.partial_trace(self.matrix, self.dims, keep),
            tuple(self.dims[k] for k in keep),
        )


# The POVM rules, one home each; every array is a stack of matrices on
# its last two axes, so one element and many POVMs share the same code.
# The Hermiticity and PSD rules live in linalg, which checks its inputs
# by them too.


def _check_element_shape(shape: tuple[int, ...]) -> None:
    """Raise ShapeMismatch unless a (..., D, D) stack's matrices are d*d
    square for a local dimension d >= 2."""
    if shape[-1] != shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {shape}")
    dim = shape[-1]
    d = isqrt(dim)
    if d * d != dim or d < 2:
        raise ShapeMismatch(f"element dimension {dim} is not d*d for a local dimension d >= 2")


def _check_elements(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless each matrix of the (..., D, D) stack is a POVM element:
    d*d square for a local dimension d >= 2, Hermitian within tolerance,
    no eigenvalue below -PSD_TOL.  NaN and infinity fail the Hermiticity
    test.  This is the one place an element stack is decomposed: it
    returns the stack's floored spectrum (linalg.floor_eigh) from the one
    ``eigh`` the PSD rule reads."""
    _check_element_shape(m.shape)
    defect, allowed = _hermiticity(m)
    if not (defect <= allowed).all():
        raise ValidationFailure("POVM element is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    linalg._require_psd(w)
    return linalg.floor_eigh(w, v)


def _check_completeness(sums: np.ndarray) -> None:
    """Raise unless each POVM's element sum, one per matrix of the
    (..., D, D) stack ``sums``, is the identity within COMPLETENESS_TOL:
    the largest deviation over the whole stack, one reduction, decides."""
    deviation = np.abs(sums - np.eye(sums.shape[-1])).max(initial=0.0)
    if not deviation <= COMPLETENESS_TOL:  # NaN fails here too
        raise IncompletePovm(
            f"element sum deviates from identity by {deviation:.3e} "
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
    check_povm_stack checks the stack once, and a Povm holds only what
    that check returns: ``matrices``, the read-only (K, D, D) stack, and
    ``floored_spectrum``, its read-only floored (w, v).  ``elements``,
    one PovmElement a row holding its row of that pair as its
    ``spectral``, is built on first read; ``len`` reads the stack.
    """

    matrices: np.ndarray
    local_dim: int | None = None
    floored_spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        mats = [np.asarray(m, dtype=complex) for m in self.matrices]
        if not mats:
            raise InvalidPovm("a POVM needs at least one element")
        if any(m.ndim != 2 or m.shape != mats[0].shape for m in mats):
            raise ShapeMismatch("POVM elements are not square matrices of one shape")
        stack, given = _frozen(mats), self.local_dim  # read before _keep sets local_dim
        self._keep(stack, _read_only(*check_povm_stack(stack)))
        d = self.local_dim  # the check passed, so d >= 2: a given 1 disagrees too
        if given is not None and linalg._integer(given, BadDimension, "local dimension") != d:
            raise ShapeMismatch("element dimensions disagree with local_dim")

    @classmethod
    def _of_spectrum(cls, w: np.ndarray, v: np.ndarray) -> "Povm":
        """The Povm of a family's closed-form spectrum (w, v) of shapes
        (1, K, D) and (1, K, D, D): check_spectrum_stack checks it, its
        floor is kept, ``matrices`` is V diag(w) V^dagger, and no eigh runs."""
        floored = _read_only(*(a[0] for a in check_spectrum_stack(w, v)))
        povm = object.__new__(cls)
        povm._keep(_frozen(((v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj())[0]), floored)
        return povm

    def _keep(self, stack: np.ndarray, floored: tuple[np.ndarray, np.ndarray]) -> None:
        # a checked read-only (K, D, D) stack and its read-only floored spectrum
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "local_dim", isqrt(stack.shape[-1]))
        object.__setattr__(self, "floored_spectrum", floored)

    @cached_property
    def elements(self) -> tuple[PovmElement, ...]:
        return tuple(map(PovmElement._of_checked_stack, self.matrices, *self.floored_spectrum))

    def __len__(self) -> int:
        return len(self.matrices)


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
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, and fails
        _check_completeness(m.sum(axis=-3))
    return spectrum


def check_spectrum_stack(w, v) -> tuple[np.ndarray, np.ndarray]:
    """The checks check_povm_stack makes, for G POVMs given by ascending
    eigendecompositions on one table, as a family's closed form hands
    them over: ``w`` of shape (G, K, D), and the one table ``v`` of shape
    (1, K, D, D), eigenvector columns in the order of ``w``.  Raises
    ShapeMismatch, naming both shapes, for any other shapes (one table
    per point too); ValidationFailure unless each w is ascending, the
    table orthonormal within HERM_TOL and each w real within the
    Hermiticity tolerance (with V orthonormal, V diag(w) V^dagger is
    Hermitian exactly when w is real, so NaN, infinite and complex
    eigenvalues fail); NotPsd for one below -PSD_TOL; IncompletePovm
    unless each POVM's element sum, w times the table's K*D projectors
    in one product, is the identity.  No element matrix is formed and
    nothing is decomposed.  Returns the floored spectrum, as
    check_povm_stack does, with the table reversed once."""
    w, v = np.asarray(w), np.asarray(v)
    if w.ndim != 3 or v.shape[:-1] != (1,) + w.shape[1:]:
        raise ShapeMismatch(
            f"expected (G, K, D) eigenvalues on one (1, K, D, D) eigenvector table, "
            f"got shapes {w.shape} and {v.shape}"
        )
    _check_element_shape(v.shape)
    # NaN passes here, and NaN and complex eigenvalues fail the Hermiticity rule
    if (np.diff(w.real, axis=-1) < 0.0).any():
        raise ValidationFailure("eigenvalues are not in ascending order")
    vt = np.swapaxes(v[0], -1, -2)  # vt[k, i, :] is eigenvector i of element k
    defect = np.abs(vt.conj() @ v[0] - np.eye(v.shape[-1])).max(initial=0.0)
    if not defect <= HERM_TOL:  # NaN fails here too
        raise ValidationFailure(f"eigenvectors deviate from orthonormal by {defect:.3e}")
    if not (np.isfinite(w) & (2.0 * np.abs(w.imag) <= HERM_TOL * np.fmax(np.abs(w), 1.0))).all():
        raise ValidationFailure("POVM element is not Hermitian within tolerance")  # 1x1 rule
    w = w.real  # within tolerance of real: the spectrum eigh reads of the Hermitian part
    linalg._require_psd(w)
    proj = (vt[..., :, None] * vt.conj()[..., None, :]).reshape(w[0].size, -1)  # (K*D, D*D)
    _check_completeness((w.reshape(len(w), -1) @ proj).reshape(-1, *v.shape[-2:]))
    return linalg.floor_eigh(w, v)


def max_entangled_state(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a pair of d-dimensional wires."""
    d = linalg._local_dim(d)
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(amps, (d, d))


# ---------------------------------------------------------------------------
# POVM file format: JSON with fields `local_dim` and `elements` and no other,
# each element a D x D row-major matrix of [re, im] pairs.  Entries are
# written with 17 significant digits so values round-trip at full double
# precision.
# ---------------------------------------------------------------------------


def write_povm(povm: Povm, path) -> None:
    def num(x: float) -> str:
        return format(float(x), ".16e")

    rows = []
    for m in povm.matrices:
        row_text = [
            "[" + ",".join(f"[{num(v.real)},{num(v.imag)}]" for v in row) + "]" for row in m
        ]
        rows.append("[" + ",".join(row_text) + "]")
    text = '{"local_dim": %d, "elements": [%s]}\n' % (povm.local_dim, ",".join(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _boolean(re, im):
    raise TypeError(f"entry [{re!r}, {im!r}] holds a boolean, not a number")


# The rules every document read from outside goes through, configs and
# separable_product elements too: states is the lowest module that reads one.
def _read_json(path, error, what: str):
    """The JSON document in the UTF-8 file at ``path``; raises ``error``
    saying that ``what`` is not valid JSON or is nested too deeply to read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:  # the text may well be valid JSON
        raise error(f"{what} is nested too deeply to read") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def _known_keys(doc: dict, known, where: str, error) -> None:
    """Raise ``error`` naming the first key of ``doc`` outside ``known``."""
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}; known: {', '.join(known) or 'none'}")


def read_povm(path) -> Povm:
    doc = _read_json(path, FileFormatError, "POVM document")
    if not isinstance(doc, dict) or "local_dim" not in doc or "elements" not in doc:
        raise FileFormatError("POVM document needs 'local_dim' and 'elements' fields")
    _known_keys(doc, ("local_dim", "elements"), "POVM document", FileFormatError)
    if type(doc["local_dim"]) is not int:  # not a bool; one that fits no element: ShapeMismatch
        raise FileFormatError(f"local_dim must be an integer, got {doc['local_dim']!r}")
    try:
        mats = []
        for raw in doc["elements"]:
            # complex() reads true as 1, so a boolean is refused before it
            mats.append(np.array([
                [complex(re, im) if type(re) is not bool is not type(im) else _boolean(re, im)
                 for re, im in row]
                for row in raw
            ]))
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
