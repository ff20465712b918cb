"""Numerical tolerances shared across the library.

Everything here assumes double precision and matrices no larger than
81x81, which leaves at least five digits of headroom on each bound.
"""

# Hermiticity defect bound, scaled by max(1, max|entry|).
HERM_TOL = 1e-10

# Eigenvalue floor: values in [-PSD_TOL, 0) are clamped to 0, below it is an error.
PSD_TOL = 1e-10

# Relative eigenvalue cutoff for numerical rank.
RANK_REL_TOL = 1e-10

# POVM completeness (sum of elements vs identity); looser because it
# accumulates error over up to ~16 elements.
COMPLETENESS_TOL = 1e-9

# Threshold on the minimum partial-transpose eigenvalue for PPT verdicts.
PPT_TOL = 1e-10

# Threshold on I-concurrence values when deciding separable vs inseparable.
INSEP_TOL = 1e-9

# Branches with probability below this are dropped from expansions.
PROB_TOL = 1e-12

# How far a complete branch set's probabilities may sum away from one.
PROB_SUM_TOL = 1e-6

# How far the Born-rule and spectral routes to one second-round
# probability may disagree.
PROB_PATH_TOL = 1e-10

# Unit-trace / unit-norm validation bound for states.
NORM_TOL = 1e-10
