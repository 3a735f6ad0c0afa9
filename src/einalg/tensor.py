"""Dense complex tensors under the Einstein product, and their basic algebra.

An :class:`EinsteinTensor` is a dense complex tensor with a
:class:`~einalg.shapes.PairedShape`.  Storage contract: the entries are kept as
the row-major flattened matrix whose element ``(phi(i) - 1, phi(j) - 1)`` is the
tensor entry ``a_{i_1..i_M, j_1..j_N}``.  Flattening a tensor to that matrix is
therefore a reinterpretation of the buffer, never a copy-permute, and every
Einstein product dispatches to one dense matrix-matrix multiply: :func:`unfold`
returns the matrix as a read-only view, and :func:`fold` copies one back
through the constructor, which checks its size.

Values are immutable after construction and all operations are pure functions,
so tensors can be shared freely between threads.  Construction checks that
every entry is finite with one pass over the entries, the sum of squares
behind the Frobenius norm, and keeps that norm: :func:`fro_norm` reads it and
never recomputes it, and the read-only matrix cannot make it stale.  A number
beyond the float range, such as the Python int ``10**400``, is not finite:
:func:`_entries` and :func:`_number` read the arrays and scalars of public
calls.  The algebra keeps each array it computes without a copy, and a
non-finite entry or scalar from finite operands is an overflow: it raises
:class:`~einalg.errors.NumericalError` naming the function
(:func:`_finite_norm` for entries, :func:`_finite` for any other value).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NumericalError, ShapeError
from .shapes import PairedShape, _check_dims, _conform, _paired, _shown, phi_index

__all__ = [
    "EinsteinTensor",
    "zeros",
    "identity",
    "add",
    "scale",
    "einstein_product",
    "conj_transpose",
    "kronecker",
    "trace",
    "inner",
    "fro_norm",
    "is_hermitian",
    "unfold",
    "fold",
]


#: The package's one floating-point guard, for the functions whose
#: arithmetic on finite operands may overflow or underflow: it ignores every
#: numpy floating-point event, so the caller's ``np.seterr`` or
#: ``np.errstate`` is no hidden input.  An overflow is still caught, by the
#: result's finite check (:func:`_finite`, :func:`_finite_norm`), and an
#: underflow is gradual, as IEEE arithmetic gives it; the error state only
#: decides what numpy reports, so no result bit depends on it.  It is a
#: decorator only.  From numpy 2.0 the decorator keeps a token per call, so
#: guarded calls nest and run in threads; a ``with`` on this one shared
#: instance is neither re-entrant nor thread-safe.
_quiet_overflow = np.errstate(all="ignore")


class EinsteinTensor:
    """Immutable dense complex tensor with paired row/column modes."""

    __slots__ = ("_shape", "_mat", "_norm")

    def __init__(self, shape: PairedShape, matrix):
        self._hold(_paired(shape), _entries(matrix, copy=True))

    def _hold(
        self,
        shape: PairedShape,
        mat: np.ndarray,
        norm: float | None = None,
        stage: str | None = None,
    ) -> None:
        """Keep ``mat`` itself, read-only, as the matrix of ``shape``, and its
        norm (``norm`` when already computed).  The entries must be finite
        (:func:`_finite_norm`): a non-finite one raises
        :class:`~einalg.errors.DomainError`, or, when ``stage`` names the
        function that computed ``mat`` from finite tensors, the
        :class:`~einalg.errors.NumericalError` of an overflow there."""
        if mat.shape != (shape.row_size, shape.col_size):
            raise ShapeError(
                f"matrix of shape {mat.shape} does not fill {shape} "
                f"({shape.row_size} x {shape.col_size})"
            )
        norm = _finite_norm(mat, norm, stage)
        mat.flags.writeable = False
        self._shape = shape
        self._mat = mat
        self._norm = norm

    @property
    def shape(self) -> PairedShape:
        return self._shape

    @property
    def row_dims(self) -> tuple[int, ...]:
        return self._shape.row_dims

    @property
    def col_dims(self) -> tuple[int, ...]:
        return self._shape.col_dims

    @property
    def matrix(self) -> np.ndarray:
        """The flattened matrix form (read-only view, no copy)."""
        return self._mat

    @property
    def H(self) -> "EinsteinTensor":
        return conj_transpose(self)

    def entry(self, row_idx=(), col_idx=()) -> complex:
        """Entry at the 1-based multi-indices ``row_idx``, ``col_idx``."""
        p = phi_index(row_idx, self.row_dims)
        q = phi_index(col_idx, self.col_dims)
        return complex(self._mat[p - 1, q - 1])

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, c):
        return scale(self, c)

    __rmul__ = __mul__

    @_quiet_overflow
    def __truediv__(self, c):
        """``self * (1 / c)`` for a finite nonzero scalar ``c``, with ``1 / c``
        taken by :func:`_reciprocal` at the larger of ``|Re c|`` and
        ``|Im c|``: within a factor of two of ``|c|``, and finite where
        ``|c|`` itself is beyond the float range."""
        c = _number("divisor", c, complex)
        if c == 0 or not cmath.isfinite(c):
            raise DomainError(f"divisor must be finite and nonzero, got {c}")
        inverse = _reciprocal(c, max(abs(c.real), abs(c.imag)))
        return _returned("divide", self._shape, self._mat * inverse)

    def __matmul__(self, other):
        return einstein_product(self, other)

    def __eq__(self, other):
        if not isinstance(other, EinsteinTensor):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._mat, other._mat)

    __hash__ = None

    def __repr__(self):
        return f"EinsteinTensor{self._shape}"


def zeros(shape) -> EinsteinTensor:
    """All-zero tensor of the given paired shape."""
    shape = _paired(shape)
    return EinsteinTensor(shape, np.zeros((shape.row_size, shape.col_size)))


def identity(row_dims) -> EinsteinTensor:
    """Identity tensor on ``(row_dims | row_dims)``: a Kronecker delta per mode."""
    row_dims = _check_dims(row_dims, "row dims", "a row dim")
    if not row_dims:
        raise ShapeError("identity needs at least one mode")
    shape = PairedShape(row_dims, row_dims)
    return EinsteinTensor(shape, np.eye(shape.row_size))


@_quiet_overflow
def add(a: EinsteinTensor, b: EinsteinTensor) -> EinsteinTensor:
    """Entrywise sum; operands must share one shape."""
    _conform("add", "the shape of b", b.shape, a.shape)
    return _returned("add", a.shape, a.matrix + b.matrix)


@_quiet_overflow
def scale(a: EinsteinTensor, c) -> EinsteinTensor:
    """Entrywise multiplication by the scalar ``c``, which must be finite."""
    c = _number("scale factor", c, complex)
    if not cmath.isfinite(c):
        raise DomainError(f"scale factor must be finite, got {c}")
    return _returned("scale", a.shape, a.matrix * c)


@_quiet_overflow
def einstein_product(a: EinsteinTensor, b: EinsteinTensor) -> EinsteinTensor:
    """Einstein product contracting ``a``'s column modes against ``b``'s row modes.

    The paired shapes fix the contraction: all of ``a.col_dims``, the paper's
    ``*_N`` with ``N = len(a.col_dims)``.  On the flattened matrices this is
    exactly a matrix product.
    """
    _conform("einstein_product", "the row modes of b", b.row_dims, a.col_dims)
    shape = PairedShape(a.row_dims, b.col_dims)
    return _returned("einstein_product", shape, a.matrix @ b.matrix)


def conj_transpose(a: EinsteinTensor) -> EinsteinTensor:
    """Hermitian transpose: swaps the mode sides and conjugates every entry."""
    return _returned("conj_transpose", a.shape.transposed, _adjoint(a.matrix))


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix as a C-ordered copy, the layout tensors store."""
    return np.conj(mat.T, order="C")


@_quiet_overflow
def kronecker(a: EinsteinTensor, b: EinsteinTensor) -> EinsteinTensor:
    """Kronecker product: modes concatenate as ``(a.rows ++ b.rows | a.cols ++ b.cols)``.

    Because the index map runs fastest over the leading modes, the flattened
    form is ``np.kron`` with the factor order swapped.
    """
    shape = PairedShape(a.row_dims + b.row_dims, a.col_dims + b.col_dims)
    return _returned("kronecker", shape, np.kron(b.matrix, a.matrix))


@_quiet_overflow
def trace(a: EinsteinTensor) -> complex:
    """Sum of the diagonal entries ``a_{i..., i...}`` of a square tensor."""
    _conform("trace", "the column modes", a.col_dims, a.row_dims)
    return _finite("trace", "the result", complex(np.trace(a.matrix)))


def inner(a: EinsteinTensor, b: EinsteinTensor) -> complex:
    """Inner product ``Tr(a^H * b)``; conjugate-linear in the first argument."""
    _conform("inner", "the shape of b", b.shape, a.shape)
    return _finite("inner", "the result", complex(np.vdot(a.matrix, b.matrix)))


#: Below this the sum of squares behind a Frobenius norm is subnormal or zero.
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


def fro_norm(a: EinsteinTensor) -> float:
    """Frobenius norm: square root of the sum of squared entry magnitudes.

    Computed once, when the tensor is built; this reads the kept value."""
    return a._norm


def _frobenius(mat: np.ndarray) -> float:
    """Frobenius norm of a complex matrix, safe beyond the squared range.

    The plain sum of squares overflows once entries pass about 1e154 and
    underflows below about 1e-154; there the real and imaginary parts are
    first scaled by the exact power of two ``2**-e`` that brings their
    largest magnitude ``m`` into [0.5, 1), and the norm is ``2**e`` times
    the norm of the scaled parts (``m`` itself when it is inf or nan; when
    it is zero, as for a matrix with no entries, the sum of squares, which
    keeps a nan that ``max`` dropped).
    The scaling neither rounds nor overflows ``m``, also a subnormal one; a
    part more than the float range below ``m`` underflows, which moves the
    norm by far less than its rounding.
    ``np.vdot`` is a BLAS call, not a ufunc, so its overflow to ``inf`` or
    underflow raises no floating-point warning: this fast branch, which every
    tensor built and every residual takes, needs no guard.  The rescale's
    ufuncs do, so it is :func:`_rescaled`, under the guard.
    """
    norm = math.sqrt(np.vdot(mat, mat).real)
    if math.isfinite(norm) and norm >= _SQRT_TINY:
        return norm
    return _rescaled(mat, norm)


@_quiet_overflow
def _rescaled(mat: np.ndarray, norm: float) -> float:
    """:func:`_frobenius` of ``mat`` whose sum of squares, with square root
    ``norm``, left the squared range, by the exact power-of-two rescale."""
    m = float(max(np.abs(mat.real).max(initial=0.0), np.abs(mat.imag).max(initial=0.0)))
    if not 0.0 < m < math.inf:
        return m or norm
    e = math.frexp(m)[1]
    parts = np.ldexp(np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64), -e)
    try:
        return math.ldexp(float(np.linalg.norm(parts)), e)
    except OverflowError:  # finite entries whose norm is beyond the float range
        return math.inf


def _reciprocal(x, s, where=True):
    """``1 / x`` for an array of complex ``x``, 0 where ``where`` is false,
    or for one Python complex, taken as ``f / (f x)`` with ``f = 2**-e`` the
    power of two that brings ``s`` into [0.5, 1); ``s`` is ``|x|``, or a
    value within a factor of two of it.  Scaling by ``f`` is exact, and
    ``f x`` is of unit size, so no step of the division overflows: numpy's
    own complex ``1 / x``, and CPython's, return 0 for a finite ``x`` such
    as ``1e308 + 1e308j``, as their denominators overflow.  An array is
    divided by numpy, a Python complex by CPython, which gives it the bits
    of ``1 / x`` wherever that and its parts stay normal.  ``f`` is beyond
    the float range where ``1 / s`` is, bar ``s = 2**-1024`` itself, and the
    result is then not finite, for the caller's overflow check."""
    f = np.ldexp(1.0, -np.frexp(s)[1])
    if isinstance(x, np.ndarray):
        return np.divide(f, x * f, out=np.zeros_like(x), where=where)
    f = float(f)
    return f / (x * f)


def _finite_norm(mat: np.ndarray, norm: float | None = None, stage: str | None = None) -> float:
    """``_frobenius(mat)`` (``norm`` when already computed) of a matrix whose
    entries must be finite, the rule of every tensor the package holds and
    of every matrix the kernel takes or returns.  A finite norm proves every
    entry finite; a non-finite one may come from finite entries beyond the
    squared range, so the scan decides.  A non-finite entry raises
    ``DomainError("entries must be finite")``, or with a ``stage``,
    ``NumericalError("<stage> overflowed: entries must be finite")``."""
    if norm is None:
        norm = _frobenius(mat)
    if not math.isfinite(norm) and not np.isfinite(mat).all():
        if stage is None:
            raise DomainError("entries must be finite")
        raise NumericalError(f"{stage} overflowed: entries must be finite")
    return norm


def _finite(stage: str, what: str, value):
    """``value``, a number or an array that ``stage`` computed from finite
    operands and ``what`` names: the one overflow rule of a computed value
    other than a tensor's entries (:func:`_finite_norm`).  A number is
    checked by ``cmath.isfinite``, an array by one ``np.isfinite`` pass; a
    non-finite one raises :class:`~einalg.errors.NumericalError`
    ``"<stage> overflowed: <what> is <value>"``, with ``not finite`` in
    place of an array."""
    if isinstance(value, np.ndarray):
        if np.isfinite(value).all():
            return value
        value = "not finite"
    elif cmath.isfinite(value):
        return value
    raise NumericalError(f"{stage} overflowed: {what} is {value}")


def _relative(diff: np.ndarray | float, ref_norm: float) -> float:
    """``|diff| / max(1, ref_norm)``, ``diff`` a flattened matrix or its
    Frobenius norm, already computed, and ``ref_norm`` the Frobenius norm of
    the reference it deviates from: the one rule of every relative residual.

    A reference whose norm overflowed measures no deviation: a nonzero
    ``diff`` against it is ``nan``, which passes no check, not 0."""
    norm = diff if isinstance(diff, float) else _frobenius(diff)
    if norm and not math.isfinite(ref_norm):
        return math.nan
    return norm / max(1.0, ref_norm)


def _number(name: str, value, kind: type = float):
    """``kind(value)``, ``kind`` being ``float`` or ``complex``: the one
    reading of a public scalar, ``name`` in a message.  A number is what
    ``kind`` converts, a Python or numpy scalar or any object with
    ``__float__`` (``__complex__`` for ``complex``) or ``__index__``, but
    never a str or bytes, even one that spells a number; anything else
    raises :class:`~einalg.errors.DomainError`.  A number beyond the float
    range, such as the Python int ``10**400``, is not finite: it reads as
    ``inf`` (``-inf`` when negative), which the caller's own check rejects,
    and a message shows it so, never as the int."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return kind(value)
        except OverflowError:
            return kind(-math.inf if value < 0 else math.inf)
        except (TypeError, ValueError):
            pass
    real = "a real" if kind is float else "a"
    raise DomainError(f"{name} must be {real} number, got {_shown(value)}")


def _entries(values, copy: bool = False) -> np.ndarray:
    """``values`` as a C-ordered complex128 array, a new one when ``copy``,
    else without a copy where none is needed: the one reading of public
    entries.  Entries are numbers, as :func:`_number` reads them, in a
    rectangular array; text, ``None`` (which numpy reads as ``nan``),
    another object, or a ragged nesting raises
    ``DomainError("entries must be numbers in a rectangular array")``, and
    an entry beyond the float range, which numpy refuses with
    ``OverflowError``, is not finite: it raises :func:`_finite_norm`'s
    ``DomainError("entries must be finite")``."""
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind == "O" and not any(x is None or isinstance(x, (str, bytes)) for x in array.flat):
            kind = "c"  # numbers numpy did not type, each converted on its own
        if kind in "biufc":
            return (np.array if copy else np.asarray)(array, dtype=np.complex128, order="C")
    except OverflowError:
        raise DomainError("entries must be finite") from None
    except (TypeError, ValueError):
        pass
    raise DomainError("entries must be numbers in a rectangular array")


def _nonnegative(name: str, value) -> float:
    """``value`` read by :func:`_number`, which the caller uses in its place:
    the rule of every public tolerance and perturbation level.  It must be
    finite and >= 0 (a ``nan`` fails), else
    :class:`~einalg.errors.DomainError` naming ``name``; one beyond the
    float range fails as ``inf``."""
    value = _number(name, value)
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")
    return value


def _returned(
    stage: str, shape: PairedShape, mat: np.ndarray, norm: float | None = None
) -> EinsteinTensor:
    """Tensor that keeps ``mat`` itself, with the constructor's checks but no
    copy: for a result the library has just computed from finite tensors and
    nothing else writes, so a non-finite entry is an overflow in ``stage``.
    ``norm``, when given, is ``_frobenius(mat)``, already computed."""
    tensor = EinsteinTensor.__new__(EinsteinTensor)
    tensor._hold(shape, np.ascontiguousarray(mat, dtype=np.complex128), norm, stage)
    return tensor


def is_hermitian(a: EinsteinTensor, tol: float = 1e-10) -> bool:
    """Whether ``a`` equals its Hermitian transpose up to ``tol`` (relative).

    Raises :class:`~einalg.errors.DomainError` unless ``tol`` is finite and
    >= 0."""
    tol = _nonnegative("tol", tol)
    _conform("is_hermitian", "the column modes", a.col_dims, a.row_dims)
    return _adjoint_deviation(a, a) <= tol


@_quiet_overflow
def _adjoint_deviation(a: EinsteinTensor, b: EinsteinTensor) -> float:
    """:func:`_relative` deviation of ``a`` from ``b^H``, whose shape the
    caller has checked is ``a``'s, taken on the matrices with no tensor
    built: a difference beyond the float range is ``inf``, not an error."""
    return _relative(a.matrix - _adjoint(b.matrix), fro_norm(a))


def unfold(a: EinsteinTensor) -> np.ndarray:
    """The ``row_size x col_size`` matrix holding ``a``'s entries (no copy)."""
    return a.matrix


def fold(mat, shape) -> EinsteinTensor:
    """Tensor of the given paired shape whose flattened form is ``mat`` (copied)."""
    return EinsteinTensor(shape, mat)
