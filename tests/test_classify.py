import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.classify import (
    ENTANGLED,
    INSEPARABLE_OPERATION,
    SEPARABLE_OPERATION,
    UNENTANGLED,
    UNENTANGLED_BOUNDARY,
    classify_element,
    classify_measurement,
    classify_stack,
    lemma1_blocked,
    lemma2_open,
    report_to_json,
)
from swapforge.engine import _make_record, apply_element, initial_state
from swapforge.errors import NotPsd, ShapeMismatch, ValidationFailure, ZeroTrace
from swapforge.families import bell_projective, noisy_bell_povm, wire2_computational_povm
from swapforge.linalg import matrix_rank, partial_transpose
from swapforge.measures import negativity
from swapforge.tolerances import INSEP_TOL, PPT_TOL, RANK_REL_TOL
from swapforge.sampling import (
    random_element,
    random_product_rank1_element,
    random_rank1_element,
    random_separable_element,
)
from swapforge.states import Povm, PovmElement

from conftest import noisy_bell_matrices, rng_from

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def test_bell_projector_classification():
    ec = classify_element(bell_projective().elements[0])
    assert ec.verdict == ENTANGLED
    assert ec.rank == 1
    assert ec.c14vs23 == pytest.approx(0.0, abs=1e-12)
    assert ec.operation_kind == INSEPARABLE_OPERATION


def test_noisy_bell_inside_separable_region():
    ec = classify_element(noisy_bell_povm(0.2).elements[0])
    assert ec.verdict == UNENTANGLED
    assert ec.rank == 4
    assert ec.c14vs23 == pytest.approx(np.sqrt(0.96), abs=1e-12)
    assert ec.operation_kind == INSEPARABLE_OPERATION


def test_product_projector_is_separable_operation():
    ec = classify_element(PovmElement(np.diag([1.0, 0, 0, 0])))
    assert ec.verdict in (UNENTANGLED, UNENTANGLED_BOUNDARY)
    assert ec.verdict != ENTANGLED
    assert ec.rank == 1
    assert ec.operation_kind == SEPARABLE_OPERATION


def test_boundary_flag_at_one_third():
    assert classify_element(noisy_bell_povm(1 / 3).elements[0]).verdict == UNENTANGLED_BOUNDARY
    assert classify_element(noisy_bell_povm(1 / 3 - 1e-6).elements[0]).verdict == UNENTANGLED
    assert classify_element(noisy_bell_povm(1 / 3 + 1e-6).elements[0]).verdict == ENTANGLED


def test_classify_zero_trace_raises():
    with pytest.raises(ZeroTrace):
        classify_element(PovmElement(np.zeros((4, 4))))


def test_classify_measurement_bell_projective():
    report = classify_measurement(bell_projective())
    assert report.measurement_entangled
    assert report.lemma1_blocked
    assert report.lemma2_open_outcomes == ()
    assert not report.measurement_separable_operation


def test_classify_measurement_noisy_bell_quarter():
    report = classify_measurement(noisy_bell_povm(0.25))
    assert not report.measurement_entangled
    assert report.lemma2_open_outcomes == (0, 1, 2, 3)
    assert not report.lemma1_blocked


def test_classify_measurement_computational_product_basis():
    mats = [np.zeros((4, 4)) for _ in range(4)]
    for k in range(4):
        mats[k][k, k] = 1.0
    report = classify_measurement(Povm(mats, local_dim=2))
    assert report.measurement_separable_operation
    assert report.lemma1_blocked
    assert not report.measurement_entangled


def test_classify_measurement_wire2_computational():
    report = classify_measurement(wire2_computational_povm())
    assert report.measurement_separable_operation
    assert not report.measurement_entangled
    assert all(ec.rank == 2 for ec in report.per_element)


# ---------------------------------------------------------------------------
# lemma rules
# ---------------------------------------------------------------------------


def test_lemma1_predicate_values(rng):
    assert lemma1_blocked(classify_element(random_rank1_element(rng)))
    assert not lemma1_blocked(classify_element(PovmElement(np.eye(4))))
    assert lemma1_blocked(classify_element(noisy_bell_povm(1.0).elements[0]))


def test_lemma2_predicate_values(rng):
    assert lemma2_open(classify_element(noisy_bell_povm(0.5).elements[0]))
    assert not lemma2_open(classify_element(bell_projective().elements[0]))  # rank 1
    assert lemma2_open(classify_element(PovmElement(np.eye(4))))  # rank 4, c14 = 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_entangled_verdict_implies_entangled_outer_pair(rng):
    from swapforge.engine import rho14_from_element

    entangled_seen = 0
    while entangled_seen < 200:
        el = random_element(rng, rank=int(rng.integers(1, 5)))
        ec = classify_element(el)
        if ec.verdict != ENTANGLED:
            continue
        entangled_seen += 1
        assert negativity(rho14_from_element(el)) > 1e-10


@given(seeds)
def test_unentangled_zero_c14_forces_zero_c12(seed):
    rng = rng_from(seed)
    el = (
        random_product_rank1_element(rng)
        if seed % 2
        else random_separable_element(rng, terms=3)
    )
    ec = classify_element(el)
    if ec.c14vs23 <= 1e-9:
        assert ec.c12vs34 <= 1e-9


def test_separable_operation_flag_invariant_under_rescale_and_reorder():
    povm = wire2_computational_povm()
    base = classify_measurement(povm)
    # reorder
    reordered = Povm(povm.matrices[::-1], local_dim=2)
    assert (
        classify_measurement(reordered).measurement_separable_operation
        == base.measurement_separable_operation
    )
    # elementwise rescale keeps each element's operation kind
    for el in povm.elements:
        scaled = PovmElement(0.3 * el.matrix)
        assert classify_element(scaled).operation_kind == SEPARABLE_OPERATION


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_report_serialization_round_trip_fields():
    report = classify_measurement(noisy_bell_povm(0.2))
    doc = json.loads(report_to_json(report))
    assert doc["measurement_entangled"] is False
    assert doc["lemma2_open_outcomes"] == [0, 1, 2, 3]
    assert len(doc["per_element"]) == 4
    first = doc["per_element"][0]
    assert first["verdict"] == "unentangled"
    assert first["c14vs23"] == pytest.approx(np.sqrt(0.96), abs=1e-12)


def test_report_serialization_renames_ppt_beyond_qubits(rng):
    el = random_separable_element(rng, d=3, terms=2)
    report = classify_measurement(
        Povm([el.matrix, np.eye(9) - el.matrix], local_dim=3)
    )
    doc = json.loads(report_to_json(report))
    for entry in doc["per_element"]:
        assert entry["verdict"] in ("ppt", "ppt-boundary", "entangled")
        assert "unentangled" not in entry["verdict"]


# ---------------------------------------------------------------------------
# classify_stack against the per-element references
# ---------------------------------------------------------------------------


def reference_class(el, rank_rel_tol=RANK_REL_TOL):
    """verdict, rank, kind and numbers of one element, each from a route
    other than the classifier's: the partial transpose, matrix_rank and
    the engine's record of the element's branch (the I-concurrences by
    SVD of its four-wire state at each cut)."""
    min_pt = float(np.linalg.eigvalsh(partial_transpose(el.matrix / el.trace, el.dims, 1))[0])
    if min_pt < -PPT_TOL:
        verdict = ENTANGLED
    elif min_pt <= PPT_TOL:
        verdict = UNENTANGLED_BOUNDARY
    else:
        verdict = UNENTANGLED
    p, post = apply_element(initial_state(el.local_dim), el)
    rec = _make_record(post, el, (0,), (p,))
    kind = INSEPARABLE_OPERATION if rec.c12vs34 > INSEP_TOL else SEPARABLE_OPERATION
    rank = matrix_rank(el.matrix, rel_tol=rank_rel_tol)
    return verdict, rank, kind, (min_pt, rec.c14vs23, rec.c12vs34)


def assert_stack_matches_references(els, **tols):
    got = classify_stack(np.array([el.matrix for el in els]), **tols)
    assert len(got) == len(els)
    for ec, el in zip(got, els):
        verdict, rank, kind, numbers = reference_class(el, **tols)
        assert (ec.verdict, ec.rank, ec.operation_kind) == (verdict, rank, kind)
        assert ec.local_dim == el.local_dim
        for value, expected in zip((ec.min_pt_eigenvalue, ec.c14vs23, ec.c12vs34), numbers):
            assert abs(value - expected) <= 1e-13
        if not tols:  # classify_element ranks at RANK_REL_TOL only
            assert ec == classify_element(el)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_classify_stack_matches_per_element_references(d):
    rng = np.random.default_rng(700 + d)
    els = [random_element(rng, d=d, rank=rank) for rank in range(1, d * d + 1)]
    els += [random_product_rank1_element(rng, d=d), random_rank1_element(rng, d=d)]
    els.append(PovmElement(np.diag(np.eye(d * d)[0])))  # the product projector |00><00|
    assert_stack_matches_references(els)


def test_classify_stack_coarse_rank_tolerance():
    # a loose cutoff drops the small eigenvalues from the rank, as matrix_rank does
    rng = np.random.default_rng(71)
    for d in (2, 3):
        els = [random_element(rng, d=d, rank=rank) for rank in range(1, d * d + 1)]
        assert_stack_matches_references(els, rank_rel_tol=1e-1)
    assert classify_stack(np.diag([1.0, 0.5, 0.05, 0.01])[None], rank_rel_tol=1e-1)[0].rank == 2


def test_a_rank_cutoff_below_the_floor_ranks_as_the_floor():
    # the rank counts the floored spectrum, which holds no 1e-11 eigenvalue
    m = np.diag([1.0, 1e-11, 0.0, 0.0])[None]
    assert classify_stack(m, rank_rel_tol=1e-12)[0].rank == 1


def test_rank_and_root_read_one_floored_spectrum():
    # the eigenvalue at RANK_REL_TOL times the largest is outside the rank
    # and, as one decision, outside the root: no 1e-5 entry leaks into it
    el = PovmElement(np.diag([1.0, 1e-10, 0.0, 0.0]))
    assert np.array_equal(el.sqrt_matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert classify_element(el).rank == matrix_rank(el.matrix) == 1


def test_classify_element_reads_the_spectrum_its_check_took(monkeypatch):
    # a Povm of matrices, whose check takes the eigh classify_stack takes
    # (noisy_bell_povm's closed-form table is another basis of its
    # degenerate eigenspace, which moves c14vs23 in the last bits)
    el = Povm(noisy_bell_matrices([0.4])[0], local_dim=2).elements[0]
    expected = classify_stack(el.matrix[None])[0]
    calls = []
    real = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    assert classify_element(el) == expected
    assert calls == []


def not_hermitian():
    m = np.eye(4)
    m[0, 1] = 1.0  # I + E_01
    return m


@pytest.mark.parametrize(
    "m, error",
    [(np.diag([1.0, -0.5, 0.2, 0.1]), NotPsd), (not_hermitian(), ValidationFailure)],
    ids=["not-psd", "not-hermitian"],
)
def test_classify_stack_checks_its_elements(m, error):
    with pytest.raises(error):
        classify_stack(np.array([np.eye(4) / 2, m]))


def test_classify_stack_boundary_verdict_at_one_third():
    els = [noisy_bell_povm(lam).elements[0] for lam in (1 / 3, 1 / 3 - 1e-6, 1 / 3 + 1e-6)]
    got = classify_stack(np.array([el.matrix for el in els]))
    assert [ec.verdict for ec in got] == [UNENTANGLED_BOUNDARY, UNENTANGLED, ENTANGLED]


@pytest.mark.parametrize("exponent", [-700, 700])
def test_an_element_far_from_unit_trace_classifies_as_its_rescaled_self(rng, exponent):
    # scaled by 2**exponent (exact), an element keeps its verdict and its
    # partial-transpose minimum bit for bit and its concurrences to
    # rounding, the rank keeps its absolute rule, and a unit-trace row
    # beside it classifies as it does alone
    m = np.array([random_element(rng, d=3).matrix for _ in range(2)])
    far = m.copy()
    far[0] = np.ldexp(m[0].view(float), exponent).view(complex)
    got, near = classify_stack(far)
    want = classify_stack(m)
    assert near == want[1]
    assert (got.verdict, got.min_pt_eigenvalue) == (want[0].verdict, want[0].min_pt_eigenvalue)
    assert got.rank == (0 if exponent < 0 else want[0].rank)
    assert got.c14vs23 == pytest.approx(want[0].c14vs23, abs=1e-14)
    assert got.c12vs34 == pytest.approx(want[0].c12vs34, abs=1e-14)


def test_classify_stack_rejects_traceless_element():
    stack = np.array([np.eye(4) / 2, np.zeros((4, 4)), np.eye(4) / 2])
    with pytest.raises(ZeroTrace):
        classify_stack(stack)


@pytest.mark.parametrize("shape", [(4, 4), (1, 4, 5), (1, 3, 3), (1, 1, 1), (2, 2, 4, 4)])
def test_classify_stack_rejects_bad_shapes(shape):
    with pytest.raises(ShapeMismatch):
        classify_stack(np.ones(shape))

