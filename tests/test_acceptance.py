"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every test prints a single pass/fail line so the suite output doubles as
the acceptance report; the same checks back the ``swapforge verify``
command.
"""

import pytest

from swapforge.verify import run_check

CRITERIA = [
    # (criterion number, check name, what it pins down)
    (1, "swap_identity", "outer-pair state equals conj(element)/trace, d=2 and d=3, <=1e-10"),
    (2, "born_normalization", "p_n = tr(element)/d^2 and sibling closure <=1e-9"),
    (3, "noisy_bell_single_round", "branch value max(0,(3l-1)/2) <=1e-9, flip at l=1/3 flagged"),
    (4, "bipartition_closed_forms", "c14 = sqrt(1-l^2) <=1e-10, c12 matches its curve <=1e-9"),
    (5, "two_round_worked_example", "s=1/2 and joint=1/8 <=1e-12, branch state/negativity, CSV curves"),
    (6, "lemma1_necessity", "rank-1 first elements: zero disturbance <=1e-10"),
    (7, "zero_c14_implies_zero_c12", "unentangled elements: c14<=1e-9 forces c12<=1e-9"),
    (8, "separable_residual_concurrence", "2 sqrt(t1 t2)/(t1+t2) vs state oracle <=1e-10, angle-free"),
    (9, "dual_path_equivalence", "contraction/spectral vs direct paths <=1e-9"),
    (10, "psd_sqrt_closed_form", "2x2 closed root vs spectral <=1e-12 on 1000 samples"),
    (11, "qudit_generalization", "criteria 1-2 at d=3 and unit concurrences <=1e-10"),
    (12, "sweep_determinism", "byte-identical CSV across consecutive sweep runs"),
    (13, "batched_sweep_equivalence", "stacked sweep engine vs per-record chain <=1e-13"),
]


@pytest.mark.parametrize("number,name,summary", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, name, summary):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] criterion {number:2d} {status} {name}: {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail} [{summary}]"
