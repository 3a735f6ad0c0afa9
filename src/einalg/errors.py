"""Exception hierarchy shared by the whole package.

Every error raised by einalg derives from :class:`EinalgError`, so callers can
catch the package's failures with a single except clause while still being able
to distinguish shape problems (bad operand structure) from numerical problems
(singular operands, non-convergent iterations).
"""

__all__ = [
    "EinalgError",
    "ShapeError",
    "IndexOutOfRangeError",
    "DomainError",
    "NumericalError",
    "SingularError",
    "SingularMatrixError",
    "SingularTensorError",
    "SingularCapacitanceError",
    "DegenerateSolutionError",
]


class EinalgError(Exception):
    """Base class for all einalg errors."""


class ShapeError(EinalgError, ValueError):
    """Operand shapes are invalid or do not conform for the requested operation."""


class IndexOutOfRangeError(EinalgError, IndexError):
    """A multi-index component or flat offset is outside its valid 1-based range."""


class DomainError(EinalgError, ValueError):
    """A scalar argument violates its domain (negative tolerance, non-finite entry, ...)."""


class NumericalError(EinalgError, RuntimeError):
    """A numerical procedure failed, e.g. the SVD did not converge."""


class SingularError(NumericalError):
    """An operand that must be numerically full rank is not.

    Carries the measured numerical ``rank`` and, when available, the smallest
    retained singular value ``sigma_min`` so callers can tell "not applicable"
    from "bug".
    """

    def __init__(self, message, rank=None, sigma_min=None):
        super().__init__(message)
        self.rank = rank
        self.sigma_min = sigma_min


class SingularMatrixError(SingularError):
    """Matrix-level inversion was requested for a rank-deficient matrix."""


class SingularTensorError(SingularError):
    """Tensor-level inversion was requested for a non-invertible tensor."""


class SingularCapacitanceError(SingularTensorError):
    """The capacitance tensor of a low-rank inverse update is not invertible."""


class DegenerateSolutionError(EinalgError):
    """The base solution is zero, so a normalized error is undefined."""
