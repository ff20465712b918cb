import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from swapforge.families import BELL_STATES
from swapforge.states import PureState

settings.register_profile(
    "swapforge",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "stress",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "swapforge"))

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def rng_from(seed: int) -> np.random.Generator:
    """Generator for hypothesis-driven randomized properties."""
    return np.random.default_rng(seed)


def element_swap_state(el) -> PureState:
    """Normalized four-wire state after measuring ``el`` on wires (2,3) of
    two maximally entangled pairs, in wire order (1,2,3,4), built from the
    element's spectral data: sum_k sqrt(pi_k) conj(A_k)[w1, w4] A_k[w2, w3]."""
    a = el.basis_tensor()
    psi = np.einsum("k,kil,kjm->ijml", np.sqrt(el.spectral[0]), a.conj(), a).reshape(-1)
    d = el.local_dim
    return PureState(psi / np.linalg.norm(psi), (d, d, d, d))


def noisy_bell_matrices(lams) -> np.ndarray:
    """The white-noise Bell measurement's elements, one POVM per lambda,
    as a (G, 4, 4, 4) stack built from BELL_STATES, apart from the
    family's closed-form spectrum: element n of POVM g is
    lams[g] |bell_n><bell_n| + (1 - lams[g])/4 I."""
    lam = np.asarray(lams, dtype=float).reshape(-1, 1, 1, 1)
    projectors = BELL_STATES[:, :, None] * BELL_STATES.conj()[:, None, :]
    return lam * projectors + (1.0 - lam) / 4.0 * np.eye(4)
