"""Exception types raised across the library."""


class SwapforgeError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(SwapforgeError, ValueError):
    """Matrix shape and declared subsystem dimensions disagree."""


class BadIndex(SwapforgeError, IndexError):
    """Wire index out of range, repeated, or not a permutation."""


class BadDimension(SwapforgeError, ValueError):
    """Local dimension below 2."""


class BadParameter(SwapforgeError, ValueError):
    """Family parameter outside its legal range."""


class NotHermitian(SwapforgeError, ValueError):
    """Hermiticity defect exceeds tolerance."""


class NotPsd(SwapforgeError, ValueError):
    """Eigenvalue below the negative tolerance floor."""


class ZeroTrace(SwapforgeError, ValueError):
    """Operation undefined on a traceless operator."""


class ValidationFailure(SwapforgeError, ValueError):
    """A state or operator violates its construction invariants."""


class InvalidPovm(SwapforgeError, ValueError):
    """POVM elements fail positivity, hermiticity, or completeness."""


class IncompletePovm(InvalidPovm):
    """Element sum does not close to the identity."""


class IncompleteBranchSet(SwapforgeError, ValueError):
    """Branch probabilities of a supposed sibling set do not sum to one."""


class FileFormatError(SwapforgeError, ValueError):
    """On-disk document does not match the expected schema."""


class ConfigError(SwapforgeError, ValueError):
    """Scenario configuration fails schema or cross-field validation."""


class InternalCheckError(SwapforgeError, RuntimeError):
    """Two redundant computation paths disagreed beyond tolerance."""
