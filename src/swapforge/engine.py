"""Protocol core: measurement rounds on the middle pair of two maximally
entangled pairs, Born-rule branching, conditional states, and per-branch
entanglement.

Wire layout is (1, 2, 3, 4): pair (1,2) is shared with the first distant
party, pair (3,4) with the second, measurements act on (2,3), and the
target pair is (1,4).  A measurement element with amplitude grid a[i, j]
on wires (2,3) steers the outer pair onto the conjugated grid, wire 1
taking the role of 2 and wire 4 the role of 3.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from . import linalg, measures
from .errors import (
    InternalCheckError,
    IncompleteBranchSet,
    InvalidPovm,
    ShapeMismatch,
)
from .measures import (
    CUT_12_34,
    CUT_14_23,
    i_concurrence,
    negativity,
    trace_distance,
)
from .states import (
    DensityMatrix,
    Povm,
    PovmElement,
    PureState,
    check_povm_stack,
)
from .tolerances import PROB_PATH_TOL, PROB_SUM_TOL, PROB_TOL

__all__ = [
    "DisturbanceReport",
    "MAX_BRANCHES",
    "OutcomeRecord",
    "StackedBranches",
    "SwapScenario",
    "apply_element",
    "average_negativity",
    "chain",
    "disturbance_check",
    "initial_state",
    "rho14_from_element",
    "rho14_two_round_spectral",
    "second_round_probability",
    "stacked_branches",
    "stacked_chain_negativities",
    "stacked_disturbance",
]

logger = logging.getLogger(__name__)

# Guard against K^rounds blowup in chain expansion.
MAX_BRANCHES = 100_000


def _check_chain_size(sizes: list[int]) -> None:
    """Raise InvalidPovm unless rounds of ``sizes`` outcomes make a chain:
    one round or more, and at most MAX_BRANCHES last-round branches."""
    if not sizes:
        raise InvalidPovm("a scenario needs at least one measurement round")
    if prod(sizes) > MAX_BRANCHES:
        raise InvalidPovm(f"scenario expands to {prod(sizes)} branches (limit {MAX_BRANCHES})")


@dataclass(frozen=True)
class SwapScenario:
    """A measurement chain on the middle pair."""

    local_dim: int
    rounds: tuple[Povm, ...]

    def __post_init__(self):
        d = linalg._local_dim(self.local_dim)
        rounds = tuple(self.rounds)
        for povm in rounds:
            if povm.local_dim != d:
                raise ShapeMismatch(
                    f"round POVM acts on dimension {povm.local_dim}^2, scenario has d={d}"
                )
        _check_chain_size([len(povm) for povm in rounds])
        object.__setattr__(self, "local_dim", d)
        object.__setattr__(self, "rounds", rounds)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One branch of the measurement chain.

    ``probability`` is the joint weight of the whole outcome path; the
    per-round conditional probabilities are kept alongside so averages
    can be taken without renormalizing.  The pair states (1,2) and (3,4)
    are ``full_state.reduced((0, 1))`` and ``((2, 3))``.  The outer-pair
    state ``rho14``, its ``negativity14`` and the I-concurrences
    ``c14vs23`` and ``c12vs34`` of ``full_state`` are computed on first
    read and kept, so a caller that reads only probabilities pays for
    none of them.
    """

    outcome_path: tuple[int, ...]
    probability: float
    round_probabilities: tuple[float, ...]
    full_state: PureState
    element: PovmElement

    @cached_property
    def rho14(self) -> DensityMatrix:
        return self.full_state.reduced((0, 3))

    @cached_property
    def negativity14(self) -> float:
        return negativity(self.rho14)

    @cached_property
    def c14vs23(self) -> float:
        return i_concurrence(self.full_state, CUT_14_23)

    @cached_property
    def c12vs34(self) -> float:
        return i_concurrence(self.full_state, CUT_12_34)


class _ChainRecord(OutcomeRecord):
    """The records ``chain`` builds.  perfbench's tracer replaces
    OutcomeRecord's ``c14vs23`` and ``c12vs34`` with descriptors that
    only read values set at construction; bound again here, the lazy
    values resolve ahead of such a patch."""

    c14vs23 = OutcomeRecord.c14vs23
    c12vs34 = OutcomeRecord.c12vs34


def initial_state(d: int) -> PureState:
    """Two maximally entangled pairs (1,2) and (3,4) in wire order (1,2,3,4)."""
    d = linalg._local_dim(d)
    amps = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            amps[i, i, j, j] = 1.0 / d
    return PureState(amps.reshape(-1), (d, d, d, d))


def _require_four_wires(state: PureState) -> int:
    if state.n_wires != 4 or len(set(state.dims)) != 1:
        raise ShapeMismatch(f"expected four wires of equal dimension, got dims {state.dims}")
    return state.dims[0]


def apply_element(state: PureState, el: PovmElement) -> tuple[float, PureState | None]:
    """Born probability and normalized post-measurement state for one
    element acting on wires (2,3); the state is None when the branch
    probability is too small to normalize."""
    d = _require_four_wires(state)
    if el.local_dim != d:
        raise ShapeMismatch(f"element local dimension {el.local_dim} does not match d={d}")
    op = el.sqrt_matrix.reshape(d, d, d, d)
    out = np.einsum("klmn,imnj->iklj", op, state.tensor())
    p = float(np.vdot(out, out).real)
    if p < PROB_TOL:
        return p, None
    return p, PureState(out.reshape(-1) / np.sqrt(p), state.dims)


def _make_record(
    post: PureState,
    element: PovmElement,
    path: tuple[int, ...],
    round_probs: tuple[float, ...],
) -> OutcomeRecord:
    return _ChainRecord(path, float(prod(round_probs)), round_probs, post, element)


def chain(scenario: SwapScenario, prob_tol: float = PROB_TOL) -> list[OutcomeRecord]:
    """Expand every outcome of every round; returns the last-round records
    in depth-first outcome order.

    This is the record-by-record reference for every stacked path.  Joint
    probabilities multiply along each path; an outcome whose conditional
    probability is below prob_tol (or PROB_TOL) is skipped and logged,
    and so are its descendants; at the cut itself see ``_expand``'s tie
    rule.  To follow one path, filter the records on ``outcome_path``.
    """
    # (path, round probabilities, state, element) of each kept branch
    frontier = [((), (), initial_state(scenario.local_dim), None)]
    for povm in scenario.rounds:
        expanded = []
        for path, probs, state, _ in frontier:
            for n, el in enumerate(povm.elements):
                p, post = apply_element(state, el)
                if post is None or p < prob_tol:
                    logger.debug("skipping branch %s: probability %.3e", path + (n,), p)
                    continue
                expanded.append((path + (n,), probs + (p,), post, el))
        frontier = expanded
    return [_make_record(post, el, path, probs) for path, probs, post, el in frontier]


def average_negativity(records: list[OutcomeRecord]) -> float:
    """Probability-weighted average of the branch negativities, the
    reference: a Python sum in record order, once the probabilities are
    checked to sum to one within PROB_SUM_TOL.

    The records must form a complete sibling set; branch negativities
    are nonnegative, so the average of an all-separable set is 0.
    """
    total = sum((rec.probability for rec in records), 0.0)
    if not abs(total - 1.0) <= PROB_SUM_TOL:  # NaN fails here too
        raise IncompleteBranchSet(f"branch probabilities sum to {total!r}, expected 1")
    return float(sum(rec.probability * rec.negativity14 for rec in records))


# ---------------------------------------------------------------------------
# Stacked expansion: many grid points and every outcome path at once.
# ---------------------------------------------------------------------------

# Callers stacking grid points size their chunks so that no array holds
# more complex entries than this (one grid point at the least).
STACK_ENTRIES = 1 << 14


def _stacked_rho14(x: np.ndarray) -> np.ndarray:
    """rho14 = x^T conj(x) of each x[..., (k l), (i j)] holding psi[i, k, l, j],
    real when x is.  A real x meets a copy of itself: handed one buffer twice,
    numpy calls BLAS syrk, about 4x slower than gemm on the sweep's stacks."""
    return np.swapaxes(x, -1, -2) @ (x.conj() if np.iscomplexobj(x) else x.copy())


def _stacked_negativity(rho: np.ndarray, d: int) -> np.ndarray:
    """Negativity of each rho14 of a (..., d^2, d^2) stack: the trace norm
    of its wire-2 partial transpose, minus one, clamped at zero, taken
    block by block along the zero pattern the partial transposes share
    (linalg._hermitian_trace_norms) and read from rho through their index
    map, with no transposed copy: the paper chain's Bell-diagonal and
    X-shaped states split into two 2x2 blocks, each in closed form, while
    a dense stack takes one eigvalsh call."""
    value = linalg._hermitian_trace_norms(rho, linalg._wire2_map(d))
    value -= 1.0
    return np.maximum(value, 0.0, out=value)


def _grid_point(g: int) -> str:
    return f"grid point {g}"


def _checked_average(
    weight: np.ndarray,
    neg: np.ndarray,
    last: np.ndarray | None = None,
    prob_tol: float = PROB_TOL,
    point=_grid_point,
) -> np.ndarray:
    """sum weight * neg over the branch axis, once every grid point's
    weights are checked to sum to one within PROB_SUM_TOL; the sweep and
    run_scenario both average here, over rows of every expanded branch, a
    dropped one as zero.  The error names the first point that fails
    (``point(g)``, or none if None) and how many of its branches in
    ``last`` (the last round's weights; ``weight`` if None) were kept."""
    total = weight.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= PROB_SUM_TOL))  # NaN fails here too
    if bad.size:
        g = int(bad[0])
        last = weight if last is None else last
        at = "" if point is None else f" at {point(g)}"
        raise IncompleteBranchSet(
            f"branch probabilities sum to {float(total[g])!r}, expected 1{at}: "
            f"{np.count_nonzero(last[g])} of {last.shape[-1]} branches kept "
            f"at prob_tol={prob_tol!r}"
        )
    return (weight * neg).sum(axis=-1)


def _expand(d: int, spectra, prob_tol: float, start: PureState | None = None):
    """The stacked round loop: yields (x, weight) after each round.

    ``spectra[r]`` is the floored spectrum (w, v) the POVM check of round
    r returns (Povm.floored_spectrum, check_povm_stack, or
    check_spectrum_stack on a family's closed form, which a sweep checks
    once per block of grid points and hands over a chunk's slice of), so
    the loop only takes roots.  w has shape (G_r, K_r, D), G_r being the
    number of grid points G or 1 for a shared round, and v shape
    (G_r, K_r, D, D) or (1, K_r, D, D), one eigenvector table the round's
    grid points share (a swept family's): the roots broadcast it, and no
    per-point copy of it is made.
    Every grid point starts from ``start`` (the initial state if None).
    x[g, b, (k l), (i j)] holds branch b's normalized psi[i, k, l, j],
    branches in chain's depth-first order (x's leading axis is 1 while
    every round so far is shared), and weight[g, b] its joint
    probability.  A branch whose conditional probability is below
    prob_tol (or PROB_TOL) gets zero weight and zero state, and so do its
    descendants.

    Field rule: a round whose eigenvectors v have no nonzero imaginary
    entry takes v.real, an exact drop, so its roots are float64; x stays
    float64 until a complex round or a complex ``start`` promotes it, and
    stays complex from then on.  A chain of real operators (the paper's
    noisy Bell and wire-2 rounds) thus runs in real arithmetic throughout,
    and so do the rho14 and Gram products taken from its x, and the
    negativity, which reads rho14 in place (no transposed copy).

    Tie rule: near the cut, this route and ``chain``'s may disagree.
    Each computes a conditional probability its own way (a stacked root
    times x here, the Born rule on one state there), so the two roundings
    of a probability at prob_tol can fall on opposite sides of it, and
    one route keeps a branch the other drops.
    """
    dim = d * d
    grid = max((w.shape[0] for w, _ in spectra), default=1)  # none: _check_chain_size raises
    for w, v in spectra:
        fits = v.ndim == 4 and v.shape[1:] == w.shape[1:] + (dim,) and w.shape[2:] == (dim,)
        if not fits or w.shape[0] not in (1, grid) or v.shape[0] not in (1, w.shape[0]):
            raise ShapeMismatch(
                f"spectrum of shapes {w.shape} and {v.shape} does not fit d={d} "
                f"and {grid} grid points"
            )
    _check_chain_size([v.shape[1] for _, v in spectra])

    tol = max(prob_tol, PROB_TOL)
    x = None if start is None else start.tensor().transpose(1, 2, 0, 3).reshape(1, 1, dim, dim)
    weight = np.ones((grid, 1))
    for w, v in spectra:
        if not v.imag.any():  # exactly real eigenvectors: the field rule
            v = v.real
        op = linalg.sqrt_from_spectrum(w, v)
        if x is None:  # the initial state's x is I/d: no matmul
            out = op[:, None] * (1.0 / d)  # (grid, branch, outcome, kl, ij)
        else:
            out = op[:, None] @ x[:, :, None]
        # out is this round's own array, so it is squared and normalized in place
        sq = out.real * out.real
        if np.iscomplexobj(out):
            sq += out.imag * out.imag
        p = sq.sum(axis=(-2, -1))
        del sq  # not kept alive into the next round's product
        p[~(p >= tol)] = 0.0  # NaN is cut too; a tie at tol is kept
        scale = np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=p > 0.0)
        out *= scale[..., None, None]
        x = out.reshape(out.shape[0], -1, dim, dim)
        weight = (weight[:, :, None] * p).reshape(grid, -1)
        yield x, weight


def stacked_chain_negativities(
    local_dim: int,
    element_stacks,
    prob_tol: float = PROB_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand every outcome path of a measurement chain for a stack of
    grid points in one pass.

    ``element_stacks[r]`` holds round r's element matrices with shape
    (G_r, K_r, d^2, d^2), G_r being the number of grid points G, or 1 for
    a round shared by all of them.  Returns three length-G arrays: the
    probability-weighted average negativity of the first-round branches,
    the same for the last-round branches, and the largest negativity of a
    kept last-round branch.

    The numbers are those of ``chain`` followed by ``average_negativity``,
    which stay the reference: a branch whose conditional probability is
    below prob_tol (or PROB_TOL) gets zero weight and so do its
    descendants; both averages need their weights to sum to one within
    PROB_SUM_TOL.  Negativity is _stacked_negativity's.  Every stack is
    checked with check_povm_stack, whose floored spectrum gives the
    element roots, in the field ``_expand``'s field rule sets.  A closure
    error names the first grid point whose first- or last-round weights
    fail, and how many of its last-round branches were kept.
    """
    spectra = [check_povm_stack(s) for s in element_stacks]
    return _chain_negativities(linalg._local_dim(local_dim), spectra, prob_tol)


def _chain_negativities(d: int, spectra, prob_tol: float, point=_grid_point):
    """stacked_chain_negativities on the rounds' floored spectra (as
    ``_expand`` takes them) of checked element stacks; ``point(g)`` names
    stack point g in a closure error."""
    for r, (x, weight) in enumerate(_expand(d, spectra, prob_tol)):
        if r == 0 or r == len(spectra) - 1:
            neg = _stacked_negativity(_stacked_rho14(x), d)
            if r == 0:
                first_round = weight, neg
    first = _checked_average(*first_round, weight, prob_tol, point)
    last = _checked_average(weight, neg, weight, prob_tol, point)
    top = np.where(weight > 0.0, neg, -np.inf).max(axis=-1)
    return first, last, top


@dataclass(frozen=True, eq=False)
class StackedBranches:
    """The kept last-round branches of a chain, one row each, in chain's
    depth-first order: ``outcome_paths`` has shape (B, rounds), the
    numeric fields shape (B,), with ``probability`` the joint probability."""

    outcome_paths: np.ndarray
    probability: np.ndarray
    negativity14: np.ndarray
    c14vs23: np.ndarray
    c12vs34: np.ndarray


def _round_spectrum(povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """A checked round's floored spectrum (Povm.floored_spectrum) as
    one shared (1, K, D, D) stack, as ``_expand`` takes it."""
    w, v = povm.floored_spectrum
    return w[None], v[None]


def stacked_branches(scenario: SwapScenario, prob_tol: float = PROB_TOL) -> StackedBranches:
    """Every kept last-round branch of a measurement chain, in one pass.

    The rounds are checked Povms: their roots come from the floored
    spectrum each Povm keeps, with no check and no decomposition here.
    The branches and their numbers are those of the records
    ``chain(scenario, prob_tol)`` returns, which stays the reference.
    The I-concurrences come from the purity of a Gram matrix, not an SVD:
    c14vs23 from the rho14 the negativity is taken from, c12vs34 from
    _stacked_rho14 of the transposed 12|34 matricization.  A row
    below measures.GRAM_CUTOFF is recomputed from its Schmidt
    coefficients, which keep a product state at exactly 0.
    """
    d = scenario.local_dim
    spectra = [_round_spectrum(povm) for povm in scenario.rounds]
    for x, weight in _expand(d, spectra, prob_tol):
        pass  # only the last round's branches are reported
    kept = np.flatnonzero(weight[0] > 0.0)
    x = x[0, kept]
    rho = _stacked_rho14(x)
    negativity14 = _stacked_negativity(rho, d)
    c14vs23 = measures._gram_concurrence(rho, x)
    # x[b, (k l), (i j)] is the 23|14 matricization; regroup to (i k)|(l j).
    # rho14 and x go first, so peak memory stays below that of two SVDs
    x12 = x.reshape(-1, d, d, d, d).transpose(0, 3, 1, 2, 4).reshape(x.shape)
    del rho, x
    return StackedBranches(
        outcome_paths=np.stack(np.unravel_index(kept, [len(p) for p in scenario.rounds]), axis=-1),
        probability=weight[0, kept],
        negativity14=negativity14,
        c14vs23=c14vs23,
        c12vs34=measures._gram_concurrence(_stacked_rho14(np.swapaxes(x12, -1, -2)), x12),
    )


# ---------------------------------------------------------------------------
# Conditional reduced states, first round.
# ---------------------------------------------------------------------------


def rho14_from_element(el: PovmElement) -> DensityMatrix:
    """Outer-pair state determined by the element alone: its computational
    conjugate normalized by its trace."""
    tr = el.trace
    if tr <= 0.0:
        raise InvalidPovm("outer-pair state undefined for a traceless element")
    d = el.local_dim
    return DensityMatrix(np.conj(el.matrix) / tr, (d, d))


# ---------------------------------------------------------------------------
# Second round: spectral cross-checks.
# ---------------------------------------------------------------------------


def _overlaps(first: PovmElement, second: PovmElement) -> np.ndarray:
    # g[m, a] = <second basis m | first basis a>
    return second.spectral[1].conj().T @ first.spectral[1]


def second_round_probability(rec: OutcomeRecord, em: PovmElement) -> float:
    """Probability of a second-round outcome on a first-round branch.

    Computed by the Born rule on the branch state and, independently,
    from the two elements' spectral data; the two must agree within
    PROB_PATH_TOL.
    Valid for records produced from the initial state.
    """
    born, _ = apply_element(rec.full_state, em)
    first = rec.element
    g = _overlaps(first, em)
    weights = np.outer(em.spectral[0], first.spectral[0])
    spectral = float((weights * np.abs(g) ** 2).sum()) / first.trace
    if not abs(born - spectral) <= PROB_PATH_TOL:  # NaN fails here too
        raise InternalCheckError(
            f"second-round probability paths disagree: born={born!r} spectral={spectral!r}"
        )
    return born


def rho14_two_round_spectral(first: PovmElement, second: PovmElement) -> DensityMatrix:
    """Outer-pair state after two rounds, built from the double sum over
    both elements' spectral data (no four-wire state is formed)."""
    if first.local_dim != second.local_dim:
        raise ShapeMismatch("elements act on different local dimensions")
    d = first.local_dim
    g = _overlaps(first, second)
    mu = second.spectral[0]
    # coeff[a, b] = sum_m mu_m g[m, a] conj(g[m, b])
    coeff = np.einsum("m,ma,mb->ab", mu, g, g.conj())
    root_pi = np.sqrt(first.spectral[0])
    weighted = coeff * np.outer(root_pi, root_pi)
    basis = first.spectral[1].conj()  # columns are the conjugated grids
    rho = basis @ weighted @ basis.conj().T
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise InvalidPovm("two-round branch has vanishing probability")
    return DensityMatrix(rho / tr, (d, d))


@dataclass(frozen=True)
class DisturbanceReport:
    """Worst-case movement of the outer-pair state under a second measurement."""

    max_trace_distance: float
    max_negativity_change: float
    per_outcome: tuple[tuple[int, float, float], ...]


def disturbance_check(rec: OutcomeRecord, povm2: Povm) -> DisturbanceReport:
    """How much a second measurement can move the outer-pair state of a
    branch: per-outcome trace distance and negativity change, plus maxima.

    Rank-one first elements leave every entry at zero up to rounding.
    """
    base_rho = rec.rho14
    base_neg = rec.negativity14
    per_outcome = []
    for m, em in enumerate(povm2.elements):
        _, post = apply_element(rec.full_state, em)
        if post is None:  # below PROB_TOL
            continue
        rho = post.reduced((0, 3))
        per_outcome.append(
            (m, trace_distance(rho, base_rho), abs(negativity(rho) - base_neg))
        )
    return DisturbanceReport(
        max_trace_distance=max((t for _, t, _ in per_outcome), default=0.0),
        max_negativity_change=max((n for _, _, n in per_outcome), default=0.0),
        per_outcome=tuple(per_outcome),
    )


def stacked_disturbance(
    rec: OutcomeRecord, povms
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """disturbance_check for a whole stack of second-round POVMs on one
    branch, in one pass.

    ``povms`` has shape (P, K, d^2, d^2): P complete K-outcome POVMs,
    validated as Povm validates one.  Returns the (P, K) mask of the kept
    outcomes and, for the kept outcomes in row-major order, their trace
    distances and negativity changes; an outcome below PROB_TOL is dropped
    as disturbance_check drops it.  disturbance_check stays the reference.
    """
    d = _require_four_wires(rec.full_state)
    # the P POVMs are P grid points of one round started from the branch
    x, weight = next(_expand(d, [check_povm_stack(povms)], PROB_TOL, rec.full_state))
    kept = weight > 0.0
    rho = _stacked_rho14(x[kept])
    # rho - rho_base is Hermitian: its trace norm is the sum of |eigenvalues|
    distance = 0.5 * linalg._hermitian_trace_norms(rho - rec.rho14.matrix)
    change = np.abs(_stacked_negativity(rho, d) - rec.negativity14)
    return kept, distance, change
