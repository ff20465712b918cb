import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
