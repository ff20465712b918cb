"""Sequential entanglement swapping with generalized measurements.

Two maximally entangled pairs (1,2) and (3,4) share their middle wires
(2,3) with one party, who measures them with arbitrary POVMs, possibly
over several rounds.  This package builds the conditional states of every
outcome branch, quantifies entanglement (negativity, I-concurrence),
classifies measurements (entangled/unentangled elements, separable vs
inseparable operations), and ships a CLI for scenario runs, parameter
sweeps, POVM classification, and a built-in verification suite.
"""

from .classify import (
    ClassificationReport,
    ElementClass,
    classify_element,
    classify_measurement,
    lemma1_blocked,
    lemma2_open,
)
from .engine import (
    DisturbanceReport,
    OutcomeRecord,
    SwapScenario,
    apply_element,
    average_negativity,
    chain,
    disturbance_check,
    initial_state,
)
from .families import (
    SingleQubitElementParams,
    bell_projective,
    noisy_bell_povm,
    separable_product_povm,
    single_qubit_residual_concurrence,
    wire2_computational_povm,
)
from .linalg import (
    matrix_rank,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    psd_sqrt_closed_2x2,
    trace_norm,
)
from .measures import (
    BipartiteCut,
    CUT_1_2,
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
    max_entangled_state,
    read_povm,
    write_povm,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteCut",
    "CUT_12_34",
    "CUT_14_23",
    "CUT_1_2",
    "ClassificationReport",
    "DensityMatrix",
    "DisturbanceReport",
    "ElementClass",
    "OutcomeRecord",
    "Povm",
    "PovmElement",
    "PureState",
    "SingleQubitElementParams",
    "SwapScenario",
    "apply_element",
    "average_negativity",
    "bell_projective",
    "chain",
    "classify_element",
    "classify_measurement",
    "disturbance_check",
    "i_concurrence",
    "initial_state",
    "lemma1_blocked",
    "lemma2_open",
    "matrix_rank",
    "max_entangled_state",
    "negativity",
    "noisy_bell_povm",
    "partial_trace",
    "partial_transpose",
    "psd_sqrt",
    "psd_sqrt_closed_2x2",
    "read_povm",
    "separable_product_povm",
    "single_qubit_residual_concurrence",
    "trace_distance",
    "trace_norm",
    "wire2_computational_povm",
    "write_povm",
]
