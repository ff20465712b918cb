"""Random states, elements, and POVMs for the verification suite and
property tests.  All generators take an explicit numpy Generator so runs
are reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .states import Povm, PovmElement, check_povm_stack

__all__ = [
    "random_element",
    "random_povm",
    "random_povm_stack",
    "random_product_rank1_element",
    "random_rank1_element",
    "random_separable_element",
]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_element(rng: np.random.Generator, d: int = 2, rank: int | None = None) -> PovmElement:
    """Random PSD element on a d x d pair, scaled to maximum eigenvalue <= 1."""
    dim = linalg._local_dim(d) ** 2
    k = rank if rank is not None else dim
    g = _ginibre(rng, dim, k)
    m = g @ g.conj().T
    m /= np.linalg.eigvalsh(m)[-1]
    m *= rng.uniform(0.2, 1.0)
    return PovmElement(m)


def random_rank1_element(rng: np.random.Generator, d: int = 2) -> PovmElement:
    v = _ginibre(rng, linalg._local_dim(d) ** 2, 1)[:, 0]
    v /= np.linalg.norm(v)
    weight = rng.uniform(0.1, 1.0)
    return PovmElement(weight * np.outer(v, v.conj()))


def random_product_rank1_element(rng: np.random.Generator, d: int = 2) -> PovmElement:
    """Rank-one element of product form |u><u| x |v><v| (unentangled)."""
    d = linalg._local_dim(d)
    u = _ginibre(rng, d, 1)[:, 0]
    u /= np.linalg.norm(u)
    v = _ginibre(rng, d, 1)[:, 0]
    v /= np.linalg.norm(v)
    weight = rng.uniform(0.1, 1.0)
    return PovmElement(weight * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj())))


def random_separable_element(
    rng: np.random.Generator, d: int = 2, terms: int = 3
) -> PovmElement:
    """Random mixture of product PSD factors (separable, hence unentangled)."""
    d = linalg._local_dim(d)
    dim = d * d
    m = np.zeros((dim, dim), dtype=complex)
    for _ in range(terms):
        ga = _ginibre(rng, d, d)
        gb = _ginibre(rng, d, d)
        m += rng.uniform(0.1, 1.0) * np.kron(ga @ ga.conj().T, gb @ gb.conj().T)
    m /= np.linalg.eigvalsh(m)[-1]
    return PovmElement(m)


def _povm_matrices(rng: np.random.Generator, count: int, d: int, n_elements: int) -> np.ndarray:
    # random PSD seeds conjugated by the inverse square root of their sum;
    # each seed draws its real part, then its imaginary part
    dim = linalg._local_dim(d) ** 2
    g = rng.normal(size=(count, n_elements, 2, dim, dim))
    g = g[:, :, 0] + 1j * g[:, :, 1]
    seeds = g @ np.conj(np.swapaxes(g, -1, -2))
    w, v = np.linalg.eigh(seeds.sum(axis=1))
    inv_root = (v / np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return inv_root[:, None] @ seeds @ inv_root[:, None]


def random_povm_stack(
    rng: np.random.Generator, count: int, d: int = 2, n_elements: int = 3
) -> np.ndarray:
    """Element matrices of ``count`` random complete POVMs, shape
    (count, n_elements, d^2, d^2).

    Draws the same normals in the same order as ``count`` calls of
    random_povm, gives the same matrices bit for bit, and makes every
    check Povm makes.
    """
    mats = _povm_matrices(rng, count, d, n_elements)
    check_povm_stack(mats)
    return mats


def random_povm(rng: np.random.Generator, d: int = 2, n_elements: int = 3) -> Povm:
    """Random complete POVM: random PSD seeds conjugated by the inverse
    square root of their sum (random_povm_stack with a count of one)."""
    return Povm(_povm_matrices(rng, 1, d, n_elements)[0], local_dim=d)
