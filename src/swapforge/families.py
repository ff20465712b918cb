"""Constructors for the parametric measurement families used by the
protocol: the white-noise Bell measurement, the Bell projective basis,
the single-wire computational measurement, and separable product
operations built from single-qubit factors.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ZeroTrace
from .states import Povm, read_povm

__all__ = [
    "BELL_STATES",
    "FAMILIES",
    "SingleQubitElementParams",
    "bell_projective",
    "build_family",
    "family_sweep_params",
    "family_sweep_stack",
    "noisy_bell_povm",
    "noisy_bell_stack",
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


_BELL_PROJECTORS = BELL_STATES[:, :, None] * BELL_STATES.conj()[:, None, :]


def noisy_bell_stack(lams) -> np.ndarray:
    """Bell measurement mixed with white noise, one POVM per lambda, as a
    (G, 4, 4, 4) element stack: element n of POVM g is
    lams[g] * |bell_n><bell_n| + (1 - lams[g])/4 * I."""
    lam = np.asarray(lams, dtype=float).reshape(-1)
    inside = (lam >= 0.0) & (lam <= 1.0)  # NaN falls outside
    if not inside.all():
        raise BadParameter(f"lambda must lie in [0, 1], got {float(lam[~inside][0])!r}")
    lam = lam[:, None, None, None]
    return lam * _BELL_PROJECTORS + (1.0 - lam) / 4.0 * np.eye(4, dtype=complex)


def noisy_bell_povm(lam: float) -> Povm:
    """The white-noise Bell measurement at one lambda (see noisy_bell_stack)."""
    return Povm(noisy_bell_stack([float(lam)])[0], local_dim=2)


def bell_projective() -> Povm:
    """The four rank-one Bell projectors."""
    return noisy_bell_povm(1.0)


def wire2_computational_povm() -> Povm:
    """Computational-basis measurement of wire 2 alone, written on the
    full (2,3) pair: E1 = |0><0| x I, E2 = |1><1| x I (rank two each)."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return Povm([np.kron(p0, eye), np.kron(p1, eye)], local_dim=2)


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
    half = p.theta / 2.0
    phase = np.exp(1j * p.phi)
    v1 = np.array([np.cos(half), phase * np.sin(half)], dtype=complex)
    v2 = np.array([np.sin(half), -phase * np.cos(half)], dtype=complex)
    return p.tau1 * np.outer(v1, v1.conj()) + p.tau2 * np.outer(v2, v2.conj())


def separable_product_povm(pairs) -> Povm:
    """POVM with product elements A_n x B_n from single-qubit factor
    parameters; the caller owns closure to the identity."""
    mats = [np.kron(single_qubit_element(a), single_qubit_element(b)) for a, b in pairs]
    return Povm(mats, local_dim=2)


def single_qubit_residual_concurrence(p: SingleQubitElementParams) -> float:
    """Entanglement kept by one pair when a single-qubit factor acts on
    its second wire: 2 sqrt(tau1 tau2) / (tau1 + tau2), independent of
    the basis angles."""
    total = p.tau1 + p.tau2
    if total <= 0.0:
        raise ZeroTrace("residual concurrence undefined for a zero factor")
    return float(2.0 * np.sqrt(p.tau1 * p.tau2) / total)


# ---------------------------------------------------------------------------
# Family registry used by scenario configs.  Each entry maps the family
# name to a builder taking the params mapping; sweepable parameters also
# have a stack builder.
# ---------------------------------------------------------------------------


def _build_noisy_bell(params: dict) -> Povm:
    if "lambda" not in params:
        raise BadParameter("noisy_bell needs a 'lambda' parameter")
    return noisy_bell_povm(params["lambda"])


def _build_bell_projective(params: dict) -> Povm:
    return bell_projective()


def _build_wire2_computational(params: dict) -> Povm:
    return wire2_computational_povm()


def _build_separable_product(params: dict) -> Povm:
    try:
        pairs = [
            (
                SingleQubitElementParams(**entry["a"]),
                SingleQubitElementParams(**entry["b"]),
            )
            for entry in params["elements"]
        ]
    except (KeyError, TypeError) as exc:
        raise BadParameter(f"separable_product needs elements: [{{a: ..., b: ...}}]: {exc}")
    return separable_product_povm(pairs)


def _build_file(params: dict) -> Povm:
    if "path" not in params:
        raise BadParameter("file family needs a 'path' parameter")
    return read_povm(params["path"])


FAMILIES = {
    "noisy_bell": _build_noisy_bell,
    "bell_projective": _build_bell_projective,
    "wire2_computational": _build_wire2_computational,
    "separable_product": _build_separable_product,
    "file": _build_file,
}

# Each sweepable parameter maps to a builder taking an array of values
# and returning the family's POVMs as one (G, K, D, D) element stack.
_SWEEPABLE = {
    "noisy_bell": {"lambda": noisy_bell_stack},
}


def family_sweep_params(name: str) -> frozenset[str]:
    if name not in FAMILIES:
        raise BadParameter(f"unknown measurement family {name!r}")
    return frozenset(_SWEEPABLE.get(name, ()))


def family_sweep_stack(name: str, param: str, values) -> np.ndarray:
    """The family's POVMs at each value of one sweepable parameter, as a
    (G, K, D, D) element stack, unchecked: the stacked engine checks it
    (check_povm_stack), and its roots come from that check."""
    if param not in family_sweep_params(name):
        raise BadParameter(f"{name!r} has no sweepable parameter {param!r}")
    return _SWEEPABLE[name][param](values)


def build_family(name: str, params: dict | None = None) -> Povm:
    if name not in FAMILIES:
        raise BadParameter(f"unknown measurement family {name!r}")
    return FAMILIES[name](dict(params or {}))
