"""Exception hierarchy shared by the whole package.

Every error raised by einalg derives from :class:`EinalgError`, so callers can
catch the package's failures with a single except clause while still being able
to distinguish shape problems (bad operand structure) from numerical problems
(singular operands, non-convergent iterations).

Bad input is one of these too, never an error of Python or numpy, because
each kind of public input has one reader:

* a number, each scalar and each entry of an array, is what ``float()``
  (``complex()`` where a complex is read) converts: a Python or numpy
  scalar, or an object such as a ``Fraction``; a str or bytes is never a
  number, even one that spells one.  Anything else, or a ragged array, is a
  :class:`DomainError`, as is a number beyond the float range, which is not
  finite;
* an integer, a dim, an index component, a flat offset or an update's
  ``order``, is what ``operator.index`` takes, numpy integers included, kept
  as a Python int.  A bad dim or ``order`` is a :class:`ShapeError`, a bad
  index or offset an :class:`IndexOutOfRangeError`;
* a sequence, the dims of a shape, a multi-index or a grid of ``sweep``,
  is any iterable but a str or bytes (:func:`einalg.shapes._sequence`); a
  bad grid is a :class:`DomainError`;
* a shape is a :class:`~einalg.shapes.PairedShape` or a
  ``(row_dims, col_dims)`` pair of sequences of integers >= 1, else a
  :class:`ShapeError`;
* operands conform when their paired modes are what the operation needs
  (``b`` shaped as ``a`` in ``add``, a square ``a`` in ``trace``, ``d``
  with ``a``'s row modes in ``solve``, ...).  One rule,
  :func:`einalg.shapes._conform`, decides every such verdict, and a
  mismatch is a :class:`ShapeError` ``"<stage>: <what> must be <want>, got
  <got>"``, ``<stage>`` naming the public function or constructor.

A bool is a number as a scalar or an entry, but not an integer, and the
tensor-file reader rejects it as an entry.  The file reader keeps
``ValueError`` for a malformed file, which :class:`ShapeError` and
:class:`DomainError` also are.

Nor is a floating-point event of the arithmetic ever numpy's error or
warning: every public function gives the same result, or the same error,
whatever numpy's error state (``np.seterr``, ``np.errstate``), because the
steps whose arithmetic can overflow or underflow run under the package's
one guard, :data:`einalg.tensor._quiet_overflow`, which ignores every
event.  A value computed from finite operands that comes out not finite is an
overflow, never bad input: a :class:`NumericalError` whose message starts
``"<stage> overflowed: "``, ``<stage>`` naming the function it occurred in.
One rule decides it and writes the rest: :func:`einalg.tensor._finite_norm`
for the entries of a tensor result (``"entries must be finite"``), and
:func:`einalg.tensor._finite` for any other number or array (``"<what> is
<value>"``, with ``not finite`` in place of an array).
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
