"""Classification of POVM elements and whole measurements.

Element verdicts come from the partial-transpose test on the normalized
element, which is an exact separability criterion for a pair of qubits;
for larger local dimension the unentangled verdict only certifies PPT
and is labelled that way in serialized reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import isqrt

import numpy as np

from . import linalg
from .errors import ShapeMismatch, ZeroTrace
from .measures import _concurrence, _pure_concurrence
from .states import Povm, PovmElement, _check_elements
from .tolerances import INSEP_TOL, PPT_TOL, PSD_TOL, RANK_REL_TOL

__all__ = [
    "ClassificationReport",
    "ElementClass",
    "ENTANGLED",
    "INSEPARABLE_OPERATION",
    "SEPARABLE_OPERATION",
    "UNENTANGLED",
    "UNENTANGLED_BOUNDARY",
    "classify_element",
    "classify_measurement",
    "classify_stack",
    "lemma1_blocked",
    "lemma2_open",
    "report_to_json",
    "verdict_label",
]

ENTANGLED = "entangled"
UNENTANGLED = "unentangled"
UNENTANGLED_BOUNDARY = "unentangled-boundary"

SEPARABLE_OPERATION = "separable-operation"
INSEPARABLE_OPERATION = "inseparable-operation"


@dataclass(frozen=True)
class ElementClass:
    """Per-element verdicts and the numbers they were decided on."""

    verdict: str
    min_pt_eigenvalue: float
    rank: int
    c14vs23: float
    c12vs34: float
    operation_kind: str
    local_dim: int


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate classification of a whole measurement."""

    per_element: tuple[ElementClass, ...]
    measurement_entangled: bool
    measurement_separable_operation: bool
    lemma1_blocked: bool
    lemma2_open_outcomes: tuple[int, ...]
    local_dim: int


def classify_stack(m, rank_rel_tol: float = RANK_REL_TOL) -> tuple[ElementClass, ...]:
    """Classify each element of an (N, d*d, d*d) stack in one pass.

    The stack is checked as PovmElement checks one element, and raises
    as it does.  The verdict comes from the smallest partial-transpose
    eigenvalue of the trace-normalized element; values within PPT_TOL of
    the edge get the boundary verdict rather than being rounded to
    either side.  The check's floored spectrum gives the rank (the count
    above rank_rel_tol times the largest; matrix_rank's at the default,
    and a cutoff below RANK_REL_TOL ranks as RANK_REL_TOL does) and
    c14vs23, sqrt(D/(D-1) (1 - sum w^2 / (sum w)^2)) at D = d*d; c12vs34
    is the 12|34 I-concurrence of the stacked post-measurement states,
    the one home of both numbers.  An empty (0, d*d, d*d) stack gives ().
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3:
        raise ShapeMismatch(f"expected an (N, d*d, d*d) element stack, got shape {m.shape}")
    return _classify(m, *_check_elements(m), rank_rel_tol)


def _classify(m, w, v, rank_rel_tol=RANK_REL_TOL):
    """classify_stack of a checked (N, D, D) stack ``m`` whose floored
    spectrum (w, v) its check returned, as a Povm keeps it.  A row whose
    trace has a binary exponent beyond +-400 (a valid 1e-200 element,
    say) is classified, but for its rank's absolute PSD_TOL rule, as
    itself scaled by the exact power of two that brings its trace into
    [0.5, 1), so no square or inverse leaves the float range."""
    d = isqrt(m.shape[-1])
    trace = np.trace(m, axis1=1, axis2=2).real
    if not (trace > 0.0).all():
        raise ZeroTrace("cannot classify a traceless element")
    rank = np.where(w[:, 0] <= PSD_TOL, 0, (w > rank_rel_tol * w[:, :1]).sum(axis=1))
    exponent = np.frexp(trace)[1]
    shift = np.where(np.abs(exponent) > 400, -exponent, 0)
    if shift.any():
        m = np.ldexp(np.ascontiguousarray(m).view(float), shift[:, None, None]).view(complex)
        w, trace = np.ldexp(w, shift[:, None]), np.ldexp(trace, shift)
    min_pt = np.linalg.eigvalsh(linalg._transpose_wire2(m / trace[:, None, None], d))[:, 0]
    tr = w.sum(axis=1)
    c14 = _concurrence((w * w).sum(axis=1) / (tr * tr), d * d)
    a = v.swapaxes(1, 2).reshape(-1, d * d, d, d)
    t = np.einsum("na,naij,nakl->nijkl", np.sqrt(w), a.conj(), a)  # (w1, w4, w2, w3)
    c12 = _pure_concurrence(t.transpose(0, 1, 3, 4, 2).reshape(m.shape))
    return tuple(
        ElementClass(
            verdict=(
                ENTANGLED if p < -PPT_TOL else UNENTANGLED if p > PPT_TOL else UNENTANGLED_BOUNDARY
            ),
            min_pt_eigenvalue=p,
            rank=r,
            c14vs23=c,
            c12vs34=c2,
            operation_kind=INSEPARABLE_OPERATION if c2 > INSEP_TOL else SEPARABLE_OPERATION,
            local_dim=d,
        )
        for p, r, c, c2 in zip(min_pt.tolist(), rank.tolist(), c14.tolist(), c12.tolist())
    )


def classify_element(el: PovmElement) -> ElementClass:
    """Classify one measurement element (classify_stack of one), from
    the spectrum it keeps."""
    w, v = el.spectral
    return _classify(el.matrix[None], w[None], v[None])[0]


def classify_measurement(povm: Povm) -> ClassificationReport:
    """Classify every element, from the spectrum the Povm keeps, and
    aggregate the measurement-level flags."""
    per_element = _classify(povm.matrices, *povm.floored_spectrum)
    return ClassificationReport(
        per_element=per_element,
        measurement_entangled=any(ec.verdict == ENTANGLED for ec in per_element),
        measurement_separable_operation=all(
            ec.operation_kind == SEPARABLE_OPERATION for ec in per_element
        ),
        lemma1_blocked=all(lemma1_blocked(ec) for ec in per_element),
        lemma2_open_outcomes=tuple(i for i, ec in enumerate(per_element) if lemma2_open(ec)),
        local_dim=povm.local_dim,
    )


def lemma1_blocked(ec: ElementClass) -> bool:
    """Lemma 1: an element of rank at most one freezes its branch."""
    return ec.rank <= 1


def lemma2_open(ec: ElementClass) -> bool:
    """Lemma 2: rank above one and nonzero 14|23 concurrence leave the outcome open."""
    return ec.rank > 1 and ec.c14vs23 > INSEP_TOL


def _sig15(x: float) -> float:
    return float(format(float(x), ".15g"))


def verdict_label(verdict: str, local_dim: int) -> str:
    """Verdict name for serialized reports.  Beyond a pair of qubits PPT
    does not certify separability, so the unentangled verdicts are
    relabelled to claim only what was tested."""
    if local_dim > 2:
        if verdict == UNENTANGLED:
            return "ppt"
        if verdict == UNENTANGLED_BOUNDARY:
            return "ppt-boundary"
    return verdict


def report_to_json(report: ClassificationReport) -> str:
    """Serialize a report; numbers carry 15 significant digits."""
    doc = asdict(report)
    for i, ec in enumerate(report.per_element):
        entry = doc["per_element"][i]
        entry["verdict"] = verdict_label(ec.verdict, ec.local_dim)
        entry["min_pt_eigenvalue"] = _sig15(ec.min_pt_eigenvalue)
        entry["c14vs23"] = _sig15(ec.c14vs23)
        entry["c12vs34"] = _sig15(ec.c12vs34)
    doc["lemma2_open_outcomes"] = list(report.lemma2_open_outcomes)
    return json.dumps(doc, indent=2)
