"""Built-in verification suite: every acceptance check at its pinned
tolerance, runnable via ``swapforge verify`` or the pytest acceptance
module.

Each check reports the worst measured deviation against its tolerance.
Randomized checks draw from fixed seeds so results are reproducible.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .classify import ENTANGLED, INSEPARABLE_OPERATION, UNENTANGLED, UNENTANGLED_BOUNDARY
from .classify import classify_element, classify_measurement, classify_stack, lemma1_blocked
from .config import RoundSpec, ScenarioConfig, SweepSpec
from .engine import (
    SwapScenario,
    _records,
    apply_element,
    average_negativity,
    chain,
    disturbance_check,
    initial_state,
    rho14_from_element,
    rho14_two_round_spectral,
    stacked_branches,
    stacked_chain_negativities,
    stacked_disturbance,
)
from .experiment import CLOSED_FORMS, run_sweep, sweep_rows
from .families import (
    SingleQubitElementParams,
    bell_projective,
    noisy_bell_povm,
    separable_product_povm,
    single_qubit_element,
    single_qubit_residual_concurrence,
    wire2_computational_povm,
)
from .linalg import (
    matrix_rank,
    partial_transpose,
    psd_sqrt,
    psd_sqrt_closed_2x2,
)
from .measures import CUT_1_2, CUT_14_23, c12_vs_34_contraction, i_concurrence, levi_civita_det4
from .sampling import (
    _povm_matrices,
    random_element,
    random_povm,
    random_povm_stack,
    random_product_rank1_element,
    random_rank1_element,
    random_separable_element,
)
from .states import Povm, PovmElement, PureState, max_entangled_state
from .tolerances import INSEP_TOL, PPT_TOL, RANK_REL_TOL


__all__ = ["CheckResult", "CHECK_NAMES", "TOLERANCES", "run_check", "run_verification"]

_SEED = 20260810
_LAMBDA_GRID = [k / 20.0 for k in range(21)]
# The paper sweep over _LAMBDA_GRID, shared by checks 5, 12 and 13.
_PAPER_SWEEP = ScenarioConfig(
    local_dim=2,
    rounds=(RoundSpec("noisy_bell"), RoundSpec("wire2_computational")),
    sweep=SweepSpec(param_name="lambda", start=0.0, stop=1.0, steps=len(_LAMBDA_GRID)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str
    skipped: bool = False
    seconds: float = 0.0  # wall time of the check, set by run_check


class _Worst:
    """The largest deviation seen, a short tag for it, and the tolerance
    (read once, by the name ``--tol-override`` uses) it is held to.  The
    first NaN seen is kept, so it fails the check."""

    def __init__(self, overrides: dict, tol_name: str, label: str = ""):
        self.tol = _tol(overrides, tol_name)
        self.label = label
        self.value = 0.0
        self.tag = ""

    def push(self, value: float, tag: str = "") -> None:
        value = float(value)
        if value > self.value or (math.isnan(value) and not math.isnan(self.value)):
            self.value = value
            self.tag = tag


def _deviation(got, ref) -> float:
    """max |got - ref| over paired values; NaN if either holds one."""
    return float(np.max(np.abs(np.subtract(got, ref))))


def _result(name, *parts: _Worst, extra: str = "", failed: bool = False) -> CheckResult:
    """One result over its parts, each held to its own tolerance; a part
    passes only when its value is <= its tolerance, so NaN fails."""
    if len(parts) == 1 and not parts[0].label:
        detail = f"max deviation {parts[0].value:.3e}"
        if parts[0].tag:
            detail += f" at {parts[0].tag}"
    else:
        detail = ", ".join(f"{w.label} {w.value:.3e} (tol {w.tol:.0e})" for w in parts)
    if extra:
        detail += f"; {extra}"
    return CheckResult(
        name=name,
        passed=all(w.value <= w.tol for w in parts) and not failed,
        max_deviation=float(np.max([w.value for w in parts])),
        tolerance=max(w.tol for w in parts),
        detail=detail,
    )


# Every tolerance a check reads, by the name `--tol-override` uses.
TOLERANCES = {
    "swap_identity": 1e-10,
    "born_normalization": 1e-9,
    "noisy_bell_single_round": 1e-9,
    "bipartition_c14": 1e-10,
    "bipartition_c12": 1e-9,
    "two_round_probability": 1e-12,
    "two_round_state": 1e-10,
    "two_round_negativity": 1e-9,
    "lemma1_necessity": 1e-10,
    "rank_rel_tol": RANK_REL_TOL,
    "zero_c14_implies_zero_c12": 1e-9,
    "separable_residual_concurrence": 1e-10,
    "dual_path_equivalence": 1e-9,
    "psd_sqrt_closed_form": 1e-12,
    "qudit_identity": 1e-10,
    "qudit_born": 1e-9,
    "batched_sweep_equivalence": 1e-13,
}


def _tol(overrides: dict, name: str) -> float:
    return float(overrides.get(name, TOLERANCES[name]))


# ---------------------------------------------------------------------------
# 1. Outer-pair identity: partial trace equals the conjugated element.
# ---------------------------------------------------------------------------


def _check_swap_identity(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = _Worst(overrides, "swap_identity")
    for d, count in ((2, 500), (3, 100)):
        base = initial_state(d)
        for k in range(count):
            el = random_element(rng, d=d, rank=rng.integers(1, d * d + 1))
            p, post = apply_element(base, el)
            if post is None:
                continue
            rho = post.reduced((0, 3)).matrix
            expected = rho14_from_element(el).matrix
            worst.push(float(np.abs(rho - expected).max()), f"d={d} sample {k}")
    return _result("swap_identity", worst)


# ---------------------------------------------------------------------------
# 2. Born rule: p_n = tr(element)/d^2 on the fresh pairs; siblings sum to 1.
# ---------------------------------------------------------------------------


def _named_family_povms() -> list[tuple[str, Povm]]:
    povms = [(f"noisy_bell({lam})", noisy_bell_povm(lam)) for lam in _LAMBDA_GRID]
    povms.append(("bell_projective", bell_projective()))
    povms.append(("wire2_computational", wire2_computational_povm()))
    taus = [(0.3, 0.9), (0.5, 0.5)]
    pairs = []
    for t1, t2 in taus:
        a = SingleQubitElementParams(theta=0.7, phi=0.3, tau1=t1, tau2=t2)
        a_c = SingleQubitElementParams(theta=0.7, phi=0.3, tau1=1 - t1, tau2=1 - t2)
        b = SingleQubitElementParams(theta=1.1, phi=2.0, tau1=0.6, tau2=0.2)
        b_c = SingleQubitElementParams(theta=1.1, phi=2.0, tau1=0.4, tau2=0.8)
        pairs.append(("separable_product", separable_product_povm(
            [(a, b), (a, b_c), (a_c, b), (a_c, b_c)]
        )))
    povms.extend(pairs)
    return povms


def _check_born_normalization(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    worst = _Worst(overrides, "born_normalization")
    candidates = _named_family_povms()
    candidates += [
        (f"random_povm[{k}]", random_povm(rng, d=2, n_elements=int(rng.integers(2, 6))))
        for k in range(200)
    ]
    for name, povm in candidates:
        d = povm.local_dim
        records = chain(SwapScenario(d, (povm,)))
        worst.push(abs(sum(r.probability for r in records) - 1.0), f"{name} closure")
        for rec in records:
            el = povm.elements[rec.outcome_path[0]]
            worst.push(abs(rec.probability - el.trace / d**2), f"{name} born")
    return _result("born_normalization", worst)


# ---------------------------------------------------------------------------
# 3. White-noise Bell, one round: branch value and the separability edge.
# ---------------------------------------------------------------------------


def _check_noisy_bell_single_round(overrides: dict) -> CheckResult:
    worst = _Worst(overrides, "noisy_bell_single_round")
    failed = False
    notes = []
    for lam in _LAMBDA_GRID:
        expected = max(0.0, CLOSED_FORMS[("noisy_bell",)](lam))
        for rec in chain(SwapScenario(2, (noisy_bell_povm(lam),))):
            worst.push(abs(rec.negativity14 - expected), f"lambda={lam}")
        verdict = classify_element(noisy_bell_povm(lam).elements[0]).verdict
        if lam < 1.0 / 3.0 and verdict != UNENTANGLED:
            failed = True
            notes.append(f"lambda={lam}: expected unentangled, got {verdict}")
        if lam > 1.0 / 3.0 and verdict != ENTANGLED:
            failed = True
            notes.append(f"lambda={lam}: expected entangled, got {verdict}")
    boundary = classify_element(noisy_bell_povm(1.0 / 3.0).elements[0]).verdict
    if boundary != UNENTANGLED_BOUNDARY:
        failed = True
        notes.append(f"lambda=1/3: expected boundary flag, got {boundary}")
    extra = "separability flips at lambda=1/3 with boundary flagged"
    if notes:
        extra = "; ".join(notes)
    return _result("noisy_bell_single_round", worst, extra=extra, failed=failed)


# ---------------------------------------------------------------------------
# 4. Per-element bipartition concurrences against their closed forms.
# ---------------------------------------------------------------------------


def _c12_reference_curve(lam: float) -> float:
    root = math.sqrt(1.0 - lam) * math.sqrt(1.0 + 3.0 * lam)
    return math.sqrt(1.0 + lam * lam - root + lam * root) / math.sqrt(2.0)


def _check_bipartition_closed_forms(overrides: dict) -> CheckResult:
    worst14 = _Worst(overrides, "bipartition_c14", "c14 deviation")
    worst12 = _Worst(overrides, "bipartition_c12", "c12 deviation")
    for lam in _LAMBDA_GRID:
        for n, ec in enumerate(classify_measurement(noisy_bell_povm(lam)).per_element):
            worst14.push(abs(ec.c14vs23 - math.sqrt(1.0 - lam * lam)), f"lambda={lam} n={n}")
            worst12.push(abs(ec.c12vs34 - _c12_reference_curve(lam)), f"lambda={lam} n={n}")
    return _result("bipartition_closed_forms", worst14, worst12)


# ---------------------------------------------------------------------------
# 5. Two-round worked example and the sweep CSV curves.
# ---------------------------------------------------------------------------


def _expected_two_round_rho(lam: float) -> np.ndarray:
    a = (math.sqrt(1 + 3 * lam) + math.sqrt(1 - lam)) / (2 * math.sqrt(1 + lam))
    b = (math.sqrt(1 + 3 * lam) - math.sqrt(1 - lam)) / (2 * math.sqrt(1 + lam))
    xi = np.array([a, 0.0, 0.0, b])
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    return (1 + lam) / 2 * np.outer(xi, xi) + (1 - lam) / 2 * np.outer(ket01, ket01)


def _paper_sweep_csv() -> bytes:
    """The bytes of the CSV that run_sweep writes for _PAPER_SWEEP."""
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "paper.csv")
        run_sweep(_PAPER_SWEEP, csv_path=path)
        with open(path, "rb") as fh:
            return fh.read()


def _check_two_round_worked_example(overrides: dict) -> CheckResult:
    worst_prob = _Worst(overrides, "two_round_probability", "probability dev")
    worst_state = _Worst(overrides, "two_round_state", "state dev")
    worst_neg = _Worst(overrides, "two_round_negativity", "negativity/CSV dev")
    second = wire2_computational_povm()
    two_rounds = CLOSED_FORMS[("noisy_bell", "wire2_computational")]
    for lam in _LAMBDA_GRID:
        scenario = SwapScenario(2, (noisy_bell_povm(lam), second))
        records = chain(scenario)
        for rec in records:
            worst_prob.push(abs(rec.round_probabilities[1] - 0.5), f"s lambda={lam}")
            worst_prob.push(abs(rec.probability - 0.125), f"joint lambda={lam}")
            worst_neg.push(abs(rec.negativity14 - two_rounds(lam)), f"lambda={lam}")
        first_branch = next(r for r in records if r.outcome_path == (0, 0))
        expected = _expected_two_round_rho(lam)
        worst_state.push(float(np.abs(first_branch.rho14.matrix - expected).max()), f"rho lambda={lam}")
        eig = np.sort(np.linalg.eigvalsh(first_branch.rho14.matrix))[::-1]
        expected_eig = np.array([(1 + lam) / 2, (1 - lam) / 2, 0.0, 0.0])
        worst_state.push(float(np.abs(eig - expected_eig).max()), f"eigs lambda={lam}")
    # Sweep CSV reproduces both table curves at its parsed lambdas (not its
    # own formula columns, which would make the check circular).
    csv = np.loadtxt(_paper_sweep_csv().splitlines(), delimiter=",", skiprows=1)
    ref1, ref2 = CLOSED_FORMS[("noisy_bell",)](csv[:, 0]), two_rounds(csv[:, 0])
    worst_neg.push(np.abs(csv[:, 1] - np.maximum(ref1, 0.0)).max(), "csv round1")
    worst_neg.push(np.abs(csv[:, 2] - ref2).max(), "csv round2")
    failed = len(csv) != len(_LAMBDA_GRID)
    return _result("two_round_worked_example", worst_prob, worst_state, worst_neg, failed=failed)


# ---------------------------------------------------------------------------
# 6. Rank-one first elements behave as frozen branches (literal test).
# ---------------------------------------------------------------------------


def _check_lemma1_necessity(overrides: dict) -> CheckResult:
    rank_rel_tol = _tol(overrides, "rank_rel_tol")
    rng = np.random.default_rng(_SEED + 6)
    base = initial_state(2)
    candidates = [random_rank1_element(rng) for _ in range(200)]
    # Near-rank-one contaminants: a corrupted rank cutoff misreads these
    # as rank one and the disturbance bound then fails, which is exactly
    # what the fault-injection path should surface.
    for _ in range(20):
        el = random_rank1_element(rng)
        bump = random_element(rng, rank=2)
        candidates.append(PovmElement(el.matrix + 5e-3 * bump.matrix))
    classes = classify_stack([el.matrix for el in candidates], rank_rel_tol=rank_rel_tol)
    worst = _Worst(overrides, "lemma1_necessity")
    checked = 0
    for k, (el, ec) in enumerate(zip(candidates, classes)):
        if not lemma1_blocked(ec):
            continue
        # only el's branch is read, so el is expanded alone
        rec = _records(base, [(el,)])[0]
        checked += 1
        # 50 two-outcome second rounds in one stack, checked once, by
        # stacked_disturbance (random_povm_stack would check them first)
        povms = _povm_matrices(rng, 50, 2, 2)
        kept, distance, change = stacked_disturbance(rec, povms)
        entries = np.zeros((2,) + kept.shape)
        entries[:, kept] = distance, change
        # maxima[j] = disturbance_check's (distance, negativity) maxima for POVM j
        maxima = entries.max(axis=-1).T
        j, which = np.unravel_index(np.argmax(maxima), maxima.shape)
        worst.push(maxima[j, which], f"element {k} povm {j} {('distance', 'negativity')[which]}")
    extra = f"{checked} rank-1 branches checked"
    return _result("lemma1_necessity", worst, extra=extra, failed=checked == 0)


# ---------------------------------------------------------------------------
# 7. Unentangled elements: zero 14|23 concurrence forces zero 12|34.
# ---------------------------------------------------------------------------


def _check_zero_c14_implies_zero_c12(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 7)
    worst = _Worst(overrides, "zero_c14_implies_zero_c12")
    els = [
        random_product_rank1_element(rng)
        if k % 5 < 2
        else random_separable_element(rng, terms=int(rng.integers(2, 5)))
        for k in range(500)
    ]
    triggered = 0
    for k, ec in enumerate(classify_stack([el.matrix for el in els])):
        if ec.c14vs23 <= worst.tol:
            triggered += 1
            worst.push(ec.c12vs34, f"sample {k}")
    extra = f"{triggered}/500 unentangled samples hit the c14=0 branch"
    return _result("zero_c14_implies_zero_c12", worst, extra=extra, failed=triggered == 0)


# ---------------------------------------------------------------------------
# 8. Residual entanglement of rank-two single-qubit factors.
# ---------------------------------------------------------------------------


def _check_separable_residual_concurrence(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 8)
    worst = _Worst(overrides, "separable_residual_concurrence")
    phi_plus = max_entangled_state(2)
    for k in range(100):
        tau1, tau2 = rng.uniform(0.05, 1.0, size=2)
        theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)
        params = SingleQubitElementParams(theta=theta, phi=phi, tau1=tau1, tau2=tau2)
        closed = single_qubit_residual_concurrence(params)
        factor = single_qubit_element(params)
        root = psd_sqrt(factor)
        amp = (np.kron(np.eye(2), root) @ phi_plus.amplitudes).reshape(-1)
        amp /= np.linalg.norm(amp)
        oracle = i_concurrence(PureState(amp, (2, 2)), CUT_1_2)
        worst.push(abs(closed - oracle), f"sample {k}")
        # Angle invariance: same weights, fresh angles.
        other = SingleQubitElementParams(
            theta=rng.uniform(0.0, np.pi), phi=rng.uniform(0.0, 2 * np.pi), tau1=tau1, tau2=tau2
        )
        worst.push(
            abs(single_qubit_residual_concurrence(other) - closed), f"angle invariance {k}"
        )
    return _result("separable_residual_concurrence", worst)


# ---------------------------------------------------------------------------
# 9. Redundant computation paths agree.
# ---------------------------------------------------------------------------


def _check_dual_path_equivalence(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 9)
    worst = _Worst(overrides, "dual_path_equivalence")
    for k in range(200):
        el = random_element(rng, rank=int(rng.integers(1, 5)))
        c12 = classify_element(el).c12vs34
        worst.push(abs(c12 - c12_vs_34_contraction(el)), f"c12 paths sample {k}")
    base = initial_state(2)
    for k in range(50):
        first = random_element(rng, rank=int(rng.integers(2, 5)))
        em = random_povm(rng, d=2, n_elements=2).elements[0]
        records = _records(base, [(first,), (em,)])
        if not records:
            continue
        rho_direct = records[0].rho14
        rho_spectral = rho14_two_round_spectral(first, em)
        worst.push(
            float(np.abs(rho_direct.matrix - rho_spectral.matrix).max()),
            f"two-round state sample {k}",
        )
        u_direct = _pt_square(rho_direct.matrix)
        u_spectral = _pt_square(rho_spectral.matrix)
        x_spectral = float(sum(u_spectral[i, i].real for i in range(4)))
        worst.push(abs(x_spectral - float(np.trace(u_direct).real)), f"X sample {k}")
        y_spectral = float(levi_civita_det4(u_spectral).real)
        worst.push(abs(y_spectral - float(np.linalg.det(u_direct).real)), f"Y sample {k}")
    return _result("dual_path_equivalence", worst)


def _pt_square(rho: np.ndarray) -> np.ndarray:
    pt = partial_transpose(rho, (2, 2), 1)
    return pt.conj().T @ pt


# ---------------------------------------------------------------------------
# 10. Closed-form 2x2 PSD square root against the spectral route.
# ---------------------------------------------------------------------------


def _check_psd_sqrt_closed_form(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 10)
    worst = _Worst(overrides, "psd_sqrt_closed_form")
    for k in range(1000):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        worst.push(float(np.abs(psd_sqrt_closed_2x2(m) - psd_sqrt(m)).max()), f"sample {k}")
    return _result("psd_sqrt_closed_form", worst)


# ---------------------------------------------------------------------------
# 11. Qudit generalization at d=3.
# ---------------------------------------------------------------------------


def _check_qudit_generalization(overrides: dict) -> CheckResult:
    rng = np.random.default_rng(_SEED + 11)
    worst_identity = _Worst(overrides, "qudit_identity", "identity/concurrence dev")
    worst_born = _Worst(overrides, "qudit_born", "born dev")
    base = initial_state(3)
    for k in range(100):
        el = random_element(rng, d=3, rank=int(rng.integers(1, 10)))
        p, post = apply_element(base, el)
        if post is None:
            continue
        rho = post.reduced((0, 3)).matrix
        worst_identity.push(
            float(np.abs(rho - rho14_from_element(el).matrix).max()),
            f"identity sample {k}",
        )
        worst_born.push(abs(p - el.trace / 9.0), f"born sample {k}")
    for k in range(50):
        povm = random_povm(rng, d=3, n_elements=int(rng.integers(2, 5)))
        records = chain(SwapScenario(3, (povm,)))
        worst_born.push(abs(sum(r.probability for r in records) - 1.0), f"closure sample {k}")
    pair = max_entangled_state(3)
    worst_identity.push(abs(i_concurrence(pair, CUT_1_2) - 1.0), "max-entangled 1|2 concurrence")
    worst_identity.push(
        abs(i_concurrence(initial_state(3), CUT_14_23) - 1.0), "initial 14|23 concurrence"
    )
    return _result("qudit_generalization", worst_identity, worst_born)


# ---------------------------------------------------------------------------
# 12. Determinism: two identical sweeps produce byte-identical CSV.
# ---------------------------------------------------------------------------


def _check_sweep_determinism(overrides: dict) -> CheckResult:
    identical = _paper_sweep_csv() == _paper_sweep_csv()
    return CheckResult(
        name="sweep_determinism",
        passed=identical,
        max_deviation=0.0 if identical else 1.0,
        tolerance=0.0,
        detail="byte-identical CSV across two runs" if identical else "CSV bytes differ",
    )


# ---------------------------------------------------------------------------
# 13. The stacked engine against the per-record chain and disturbance check.
# ---------------------------------------------------------------------------


def _chain_reference(d: int, povms) -> tuple[float, float, float]:
    """First-round and last-round average negativity and the largest
    last-round branch negativity, record by record."""
    first = average_negativity(chain(SwapScenario(d, povms[:1])))
    records = chain(SwapScenario(d, povms))
    return first, average_negativity(records), max(rec.negativity14 for rec in records)


def _check_batched_sweep_equivalence(overrides: dict) -> CheckResult:
    worst = _Worst(overrides, "batched_sweep_equivalence")
    second = wire2_computational_povm()
    for row in sweep_rows(_PAPER_SWEEP):
        ref = _chain_reference(2, (noisy_bell_povm(row.param_value), second))
        got = (row.avg_neg_round1, row.avg_neg_round2, row.max_branch_negativity)
        worst.push(_deviation(got, ref), f"paper lambda={row.param_value}")
    # Seeded chains, three grid points per shape.
    rng = np.random.default_rng(_SEED + 13)
    for d, shape in ((2, (3,)), (2, (2, 3)), (2, (3, 2, 2)), (3, (2, 3))):
        chains = [[random_povm(rng, d=d, n_elements=k) for k in shape] for _ in range(3)]
        stacks = [np.stack([povms[r].matrices for povms in chains]) for r in range(len(shape))]
        got = np.stack(stacked_chain_negativities(d, stacks), axis=-1)
        for g, povms in enumerate(chains):
            ref = _chain_reference(d, povms)
            worst.push(_deviation(got[g], ref), f"d={d} outcomes={shape} point {g}")
    # Stacked disturbance, outcome by outcome, on branches whose first
    # elements have rank 1-4, so most distances are far from zero.
    mismatched = []
    for d in (2, 3):
        for rank in (1, 2, 3, 4):
            rec = _records(initial_state(d), [(random_element(rng, d=d, rank=rank),)])[0]
            stack = random_povm_stack(rng, 3, d=d, n_elements=3)
            kept, distance, change = stacked_disturbance(rec, stack)
            ref = [
                (j, m, t, n)
                for j, mats in enumerate(stack)
                for m, t, n in disturbance_check(rec, Povm(mats, d)).per_outcome
            ]
            if [(j, m) for j, m, _, _ in ref] != list(zip(*np.nonzero(kept))):
                mismatched.append(f"disturbance d={d} rank={rank}")
                continue
            for (j, m, t, n), got_t, got_n in zip(ref, distance, change):
                tag = f"disturbance d={d} rank={rank} povm {j} outcome {m}"
                worst.push(_deviation((got_t, got_n), (t, n)), tag)
    # Stacked branches against chain's records, branch by branch: random
    # POVMs, whose concurrences take the Gram route, and the paper chain at
    # lambda = 1, whose c14vs23 = 0 rows take the SVD and c12vs34 =
    # sqrt(2/3) rows the Gram route.
    shapes = ((2, (3,)), (2, (2, 3, 2)), (3, (4,)), (3, (2, 3)), (4, (3,)), (4, (2, 2, 2)))
    scenarios = [
        (f"d={d} outcomes={ks}", SwapScenario(d, [random_povm(rng, d=d, n_elements=k) for k in ks]))
        for d, ks in shapes
    ]
    scenarios.append(("noisy_bell(1.0) -> wire2", SwapScenario(2, (noisy_bell_povm(1.0), second))))
    for label, scenario in scenarios:
        records = chain(scenario)
        got = stacked_branches(scenario)
        tag = f"branches {label}"
        if [list(rec.outcome_path) for rec in records] != got.outcome_paths.tolist():
            mismatched.append(tag)
            continue
        rows = np.stack((got.probability, got.negativity14, got.c14vs23, got.c12vs34), axis=-1)
        for row, rec in zip(rows, records):
            ref = (rec.probability, rec.negativity14, rec.c14vs23, rec.c12vs34)
            worst.push(_deviation(row, ref), f"{tag} path {rec.outcome_path}")
    # The stacked classifier against the per-element references; the
    # concurrences from the engine's record of the element's branch.
    for d in (2, 3):
        els = [random_element(rng, d=d, rank=rank) for rank in (1, 2, 3, 4)]
        els += [random_separable_element(rng, d=d), random_product_rank1_element(rng, d=d)]
        for k, (el, ec) in enumerate(zip(els, classify_stack([el.matrix for el in els]))):
            pt = float(np.linalg.eigvalsh(partial_transpose(el.matrix / el.trace, el.dims, 1))[0])
            want = [ENTANGLED, UNENTANGLED_BOUNDARY, UNENTANGLED][(pt >= -PPT_TOL) + (pt > PPT_TOL)]
            rec = _records(initial_state(d), [(el,)])[0]
            ref = (pt, rec.c14vs23, rec.c12vs34)
            kinds = (want, matrix_rank(el.matrix), ref[2] > INSEP_TOL)
            if kinds != (ec.verdict, ec.rank, ec.operation_kind == INSEPARABLE_OPERATION):
                mismatched.append(f"classify d={d} element {k}")
            got = (ec.min_pt_eigenvalue, ec.c14vs23, ec.c12vs34)
            worst.push(_deviation(got, ref), f"classify d={d} element {k}")
    extra = ""
    if mismatched:
        extra = f"outcomes kept or classified differently at {', '.join(mismatched)}"
    return _result("batched_sweep_equivalence", worst, extra=extra, failed=bool(mismatched))


_CHECKS = {
    "swap_identity": _check_swap_identity,
    "born_normalization": _check_born_normalization,
    "noisy_bell_single_round": _check_noisy_bell_single_round,
    "bipartition_closed_forms": _check_bipartition_closed_forms,
    "two_round_worked_example": _check_two_round_worked_example,
    "lemma1_necessity": _check_lemma1_necessity,
    "zero_c14_implies_zero_c12": _check_zero_c14_implies_zero_c12,
    "separable_residual_concurrence": _check_separable_residual_concurrence,
    "dual_path_equivalence": _check_dual_path_equivalence,
    "psd_sqrt_closed_form": _check_psd_sqrt_closed_form,
    "qudit_generalization": _check_qudit_generalization,
    "sweep_determinism": _check_sweep_determinism,
    "batched_sweep_equivalence": _check_batched_sweep_equivalence,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, tol_overrides: dict | None = None) -> CheckResult:
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    start = perf_counter()
    result = _CHECKS[name](dict(tol_overrides or {}))
    return replace(result, seconds=perf_counter() - start)


def run_verification(
    tol_overrides: dict | None = None, skip: tuple[str, ...] = ()
) -> list[CheckResult]:
    """Run every check; skipped ones are reported but do not affect the
    pass verdict."""
    results = []
    for name in CHECK_NAMES:
        if name in skip:
            results.append(
                CheckResult(
                    name=name, passed=True, max_deviation=0.0, tolerance=0.0,
                    detail="skipped by request", skipped=True,
                )
            )
            continue
        results.append(run_check(name, tol_overrides))
    return results
