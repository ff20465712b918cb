"""Constructors for the parametric measurement families used by the
protocol: the white-noise Bell measurement, the Bell projective basis,
the single-wire computational measurement, and separable product
operations built from single-qubit factors.  The first three are built
from their closed-form spectra, each formula's one home, so a run and a
sweep root the same spectra and neither decomposes them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, ZeroTrace
from .states import Povm, _known_keys, read_povm

__all__ = [
    "BELL_STATES",
    "FAMILIES",
    "Family",
    "SingleQubitElementParams",
    "bell_projective",
    "build_family",
    "noisy_bell_povm",
    "noisy_bell_spectrum",
    "separable_product_povm",
    "single_qubit_element",
    "single_qubit_residual_concurrence",
    "wire2_computational_povm",
]

_S2 = 1.0 / np.sqrt(2.0)

# Bell basis in outcome order (phi+, phi-, psi+, psi-); report outcome
# indices follow this ordering.
BELL_STATES = np.array(
    [
        [_S2, 0.0, 0.0, _S2],
        [_S2, 0.0, 0.0, -_S2],
        [0.0, _S2, _S2, 0.0],
        [0.0, _S2, -_S2, 0.0],
    ],
    dtype=complex,
)
BELL_STATES.setflags(write=False)

# The eigenvectors of noisy Bell element n as columns, in ascending order
# of their eigenvalues: the three other Bell states, then |bell_n>.  Real,
# so the swept round's roots and branch states stay float64.
_NOISY_BELL_VECTORS = BELL_STATES.real[[[m for m in range(4) if m != n] + [n] for n in range(4)]]
_NOISY_BELL_VECTORS = _NOISY_BELL_VECTORS.swapaxes(-1, -2).copy()
_NOISY_BELL_VECTORS.setflags(write=False)

# The eigenvectors of |i><i| x I as columns, for eigenvalues (0, 0, 1, 1):
# the computational states with wire-2 value 1 - i, then i.  Exact, real.
_WIRE2_VECTORS = np.eye(4)[[[[2, 3, 0, 1], [0, 1, 2, 3]]]].swapaxes(-1, -2).copy()
_WIRE2_VECTORS.setflags(write=False)


def noisy_bell_spectrum(lams) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigendecomposition (w, v) of the white-noise Bell
    elements lam |bell_n><bell_n| + (1 - lam)/4 I, one POVM per lambda:
    eigenvalue (1 - lam)/4 on the three other Bell states and
    lam + (1 - lam)/4 on |bell_n>.  w has shape
    (G, 4, 4); v is the one read-only real table, of shape (1, 4, 4, 4),
    that every lambda shares: the Bell basis does not depend on lambda.
    Raises BadParameter naming the first lambda outside [0, 1]."""
    lam = np.asarray(lams, dtype=float).reshape(-1)
    inside = (lam >= 0.0) & (lam <= 1.0)  # NaN falls outside
    if not inside.all():
        raise BadParameter(f"lambda must lie in [0, 1], got {float(lam[~inside][0])!r}")
    w = np.empty((lam.size, 4, 4))
    w[...] = ((1.0 - lam) / 4.0)[:, None, None]
    w[..., 3] += lam[:, None]
    return w, _NOISY_BELL_VECTORS[None]


def noisy_bell_povm(lam: float) -> Povm:
    """The white-noise Bell measurement at one lambda (see noisy_bell_spectrum)."""
    return Povm._of_spectrum(*noisy_bell_spectrum([float(lam)]))


def bell_projective() -> Povm:
    """The four rank-one Bell projectors."""
    return noisy_bell_povm(1.0)


def wire2_computational_povm() -> Povm:
    """Computational-basis measurement of wire 2 alone, written on the
    full (2,3) pair: E1 = |0><0| x I, E2 = |1><1| x I (rank two each)."""
    return Povm._of_spectrum(np.array([[[0.0, 0.0, 1.0, 1.0]] * 2]), _WIRE2_VECTORS)


def _is_finite_number(value) -> bool:
    """A finite real number: strings, booleans, None, NaN, infinities and
    integers beyond the float range are not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class SingleQubitElementParams:
    """A single-qubit PSD factor tau1 |v1><v1| + tau2 |v2><v2| with
    v1 = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and v2 orthogonal."""

    theta: float
    phi: float
    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("theta", "phi", "tau1", "tau2"):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise BadParameter(f"{name} must be a finite number, got {value!r}")
        if self.tau1 < 0.0 or self.tau2 < 0.0:
            raise BadParameter(f"weights must be nonnegative, got ({self.tau1}, {self.tau2})")


def single_qubit_element(p: SingleQubitElementParams) -> np.ndarray:
    """The factor's 2x2 matrix; weights near the float maximum may give
    infinite entries, silently, which the element check rejects."""
    half = p.theta / 2.0
    phase = np.exp(1j * p.phi)
    v1 = np.array([np.cos(half), phase * np.sin(half)], dtype=complex)
    v2 = np.array([np.sin(half), -phase * np.cos(half)], dtype=complex)
    with np.errstate(over="ignore"):
        return p.tau1 * np.outer(v1, v1.conj()) + p.tau2 * np.outer(v2, v2.conj())


def separable_product_povm(pairs) -> Povm:
    """POVM with product elements A_n x B_n from single-qubit factor
    parameters; the caller owns closure to the identity."""
    with np.errstate(over="ignore"):  # an entry beyond the float range is inf, and fails
        mats = [np.kron(single_qubit_element(a), single_qubit_element(b)) for a, b in pairs]
    return Povm(mats, local_dim=2)


def single_qubit_residual_concurrence(p: SingleQubitElementParams) -> float:
    """Entanglement kept by one pair when a single-qubit factor acts on
    its second wire: 2 sqrt(tau1 tau2) / (tau1 + tau2), independent of
    the basis angles.  Both weights are first scaled by the exact power
    of two that brings the larger into [0.5, 1), so neither their product
    nor their sum overflows."""
    shift = -math.frexp(max(p.tau1, p.tau2))[1]
    tau1, tau2 = math.ldexp(p.tau1, shift), math.ldexp(p.tau2, shift)
    total = tau1 + tau2
    if total <= 0.0:
        raise ZeroTrace("residual concurrence undefined for a zero factor")
    return float(2.0 * np.sqrt(tau1 * tau2) / total)


@dataclass(frozen=True)
class Family:
    """A measurement family a config round names: the parameter names the
    round takes, the builder called with their values in that order, and,
    for a family swept over its one parameter, ``spectrum``, which turns
    an array of G values into the ascending eigendecomposition (w, v) of
    the family's K elements at each: w of shape (G, K, D), and one
    read-only eigenvector table v of shape (1, K, D, D) that every value
    shares.  It is unchecked; the sweep checks it with check_spectrum_stack,
    and ``build`` hands the same closed form to Povm._of_spectrum."""

    params: tuple[str, ...]
    build: Callable[..., Povm]
    spectrum: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


def _separable_product(elements) -> Povm:
    try:
        pairs = []
        for entry in elements:
            _known_keys(entry, ("a", "b"), "separable_product element", BadParameter)
            pairs.append(tuple(SingleQubitElementParams(**entry[k]) for k in ("a", "b")))
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadParameter(f"separable_product needs elements: [{{a: ..., b: ...}}]: {exc}")
    return separable_product_povm(pairs)


FAMILIES = {
    "noisy_bell": Family(("lambda",), noisy_bell_povm, spectrum=noisy_bell_spectrum),
    "bell_projective": Family((), bell_projective),
    "wire2_computational": Family((), wire2_computational_povm),
    "separable_product": Family(("elements",), _separable_product),
    # looks read_povm up in this module at call time, where a rebinding
    # of the module global (a tracer's, say) sees the call
    "file": Family(("path",), lambda path: read_povm(path)),
}


def build_family(name: str, params: dict | None = None) -> Povm:
    """The family's POVM; raises BadParameter for an unknown family or
    unless ``params`` names exactly the family's parameters."""
    if name not in FAMILIES:
        raise BadParameter(f"unknown measurement family {name!r}")
    family, params = FAMILIES[name], dict(params or {})
    if params.keys() != set(family.params):
        raise BadParameter(f"{name} takes parameters {list(family.params)}, got {list(params)}")
    return family.build(*(params[p] for p in family.params))
