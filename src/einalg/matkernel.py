"""Dense complex matrix kernel: SVD, pseudoinverse, inverse.

The decomposition is LAPACK's SVD as bundled with numpy, truncated at the
standard numerical-rank threshold ``sigma_max * max(m, n) * 2**-52``; only
:func:`einalg.inverses.pinv` scales it, by its ``tol``.
One private step, :func:`_cut`, makes the rank decision and assembles the
pseudoinverse ``(v / s) @ u^H``, of one matrix or of each matrix of a
stack.  It and :func:`svd` run under the package's one guard,
:data:`einalg.tensor._quiet_overflow`, so no floating-point event of the
rank floor or the assembly reaches the caller, whatever numpy's error
state: an overflow is left to the finite checks, and an underflow is
gradual.  Every pseudoinverse
(:func:`pinv_matrix`, :func:`einalg.inverses.pinv` and the split's K x K
stack in :mod:`einalg.woodbury`), the inverse and its singular verdict, and
every rank count (:func:`numerical_rank` and the predicates of
:mod:`einalg.inverses`) read it.  A 1 x 1 matrix ``x``, or a stack of them,
makes no LAPACK call there: its one singular value is ``|x|``, cut by the
same rule, and its inverse is ``1 / x`` (the rank-one case of the update
identities, Sherman and Morrison 1950).  Only :func:`svd`, which returns
LAPACK's factors, takes a 1 x 1 matrix to LAPACK.
The entries of every input must be finite, the rule of every tensor
(:func:`einalg.tensor._finite_norm`): a non-finite one is a
:class:`~einalg.errors.DomainError`.  A largest singular value beyond the
float range, or an inverse that overflows (a kept singular value below
about 1e-308), is a :class:`~einalg.errors.NumericalError`, not a rank the
overflow cut to 0 or a non-finite result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError, SingularError, SingularMatrixError
from .shapes import PairedShape, _conform
from .tensor import _entries, _finite, _finite_norm, _quiet_overflow, _reciprocal

__all__ = ["Svd", "svd", "pinv_matrix", "inv_matrix", "numerical_rank"]

_EPS = 2.0 ** -52


@dataclass(frozen=True)
class Svd:
    """Thin, truncated SVD ``a = u @ diag(s) @ v.conj().T``.

    ``u`` is m x r and ``v`` is n x r with orthonormal columns; ``s`` holds the
    r singular values above the truncation threshold, sorted descending.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.s)


def _as_matrix(mat) -> np.ndarray:
    mat = _entries(mat)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={mat.ndim}")
    _finite_norm(mat)
    return mat


def _rank_floor(scale: float, shape: tuple[int, ...], tol: float) -> float:
    """``scale * (max(m, n) * 2**-52) * tol``, the rank rule of :func:`svd` and
    of the split in :func:`einalg.woodbury.decompose_update`: at or below it is
    residue.  The bracket is exact and below 1, so a ``scale`` near the
    largest float gives a finite floor."""
    return scale * (max(shape) * _EPS) * tol


def _lapack_svd(mat: np.ndarray, stage: str | None = None):
    """LAPACK's thin SVD of a matrix or of a stack of them.  A finite matrix
    whose largest singular value is beyond the float range overflows: its
    rank rule would cut every value.  The error names ``stage``, when given,
    as the function the overflow occurred in, else the SVD itself."""
    m, n = mat.shape[-2:]
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD of a {m} x {n} matrix failed: {err}") from err
    _finite(stage or f"SVD of a {m} x {n} matrix", "sigma_max", s[..., :1])
    return u, s, vh


def _kept(s: np.ndarray, shape: tuple[int, ...], tol: float, scale: float | None = None) -> np.ndarray:
    """Which singular values of a matrix of ``shape``, or of each matrix of a
    stack, are above the rank rule of their own largest, or of ``scale`` when
    given.  This is the kernel's one rank rule."""
    return s > _rank_floor(s[..., :1] if scale is None else scale, shape, tol)


@_quiet_overflow
def _cut(
    stack: np.ndarray, tol: float = 1.0, scale: float | None = None, stage: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p, s, kept)`` of a finite matrix, or of each finite matrix of a
    stack, with no check of the entries: the kernel's one rank decision.
    ``s`` holds the singular values, largest first, under
    :func:`_lapack_svd`'s overflow rule, which names ``stage`` when given;
    ``kept`` is the rank rule's verdict on them (:func:`_kept`, at ``tol``
    and ``scale``), and ``p`` the pseudoinverse that keeps just those.  A
    stack is factored in one LAPACK call, and each slice gets the bits it
    gets alone: LAPACK factors each slice as it would alone, and the cut and
    the assembly act on each slice alike.

    A 1 x 1 matrix ``x`` makes no LAPACK call: ``s = |x|``, and ``p`` is
    ``1 / x`` where it is kept, else 0, by
    :func:`~einalg.tensor._reciprocal`, which returns ``1 / x`` also for an
    ``x`` near the largest float.  Any other is LAPACK's, assembled as
    ``(v / s) @ u^H`` with ``s = inf`` where a value is cut, which makes its
    column an exact zero; LAPACK's ``u`` and ``vh`` are overwritten, so the
    only new array is ``p``.  An overflow, in the floor or in ``p``, leaves
    a non-finite value, and an underflow a subnormal or zero, never a
    warning or numpy's ``FloatingPointError``: every step runs under one
    guard, :data:`~einalg.tensor._quiet_overflow`."""
    if stack.shape[-2:] == (1, 1):
        s = np.abs(stack[..., 0])
        _finite(stage or "SVD of a 1 x 1 matrix", "sigma_max", s)
        kept = _kept(s, (1, 1), tol, scale)
        return _reciprocal(stack, s[..., None], kept[..., None]), s, kept
    u, s, vh = _lapack_svd(stack, stage)
    kept = _kept(s, stack.shape[-2:], tol, scale)
    np.conj(vh, out=vh)
    vh /= np.where(kept, s, np.inf)[..., None]
    return vh.swapaxes(-1, -2) @ np.conj(u, out=u).swapaxes(-1, -2), s, kept


@_quiet_overflow
def svd(mat) -> Svd:
    """Thin SVD truncated at ``sigma_max * max(m, n) * 2**-52``, under the
    guard, as :func:`_cut` is: the floor of a tiny ``sigma_max`` underflows.

    The factors are LAPACK's, of a 1 x 1 matrix too, so this alone keeps
    LAPACK's refusal of a 1 x 1 ``x`` whose ``sigma_max`` it returns as
    ``nan`` though ``|x|`` is finite (``x`` near the largest float); every
    other function of the kernel cuts and inverts ``x`` by ``|x|``
    (:func:`_cut`)."""
    mat = _as_matrix(mat)
    u, s, vh = _lapack_svd(mat)
    rank = int(np.count_nonzero(_kept(s, mat.shape, 1.0)))
    return Svd(u=u[:, :rank], s=s[:rank], v=vh[:rank].conj().T)


def pinv_matrix(mat) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD: the ``p`` of
    :func:`_cut`, checked finite."""
    result = _cut(_as_matrix(mat))[0]
    _finite_norm(result, stage="pinv_matrix")
    return result


def inv_matrix(mat) -> np.ndarray:
    """Inverse of a square, numerically full-rank matrix."""
    mat = _as_matrix(mat)
    _conform("inv_matrix", "the number of columns", mat.shape[1], mat.shape[0])
    result = _inverse(mat)[0]
    _finite_norm(result, stage="inv_matrix")
    return result


def _inverse(
    mat: np.ndarray,
    scale: float | None = None,
    error: type[SingularError] = SingularMatrixError,
    subject: str = "matrix",
    shape: PairedShape | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`inv_matrix` of a finite square matrix, with no check of the
    entries, and the matrix's singular values, largest first: the ``p`` and
    ``s`` of :func:`_cut`.  ``scale``, at least ``sigma_max``, replaces it in
    the rank rule: for a matrix summed from terms of that size, whose
    rounding it has to stand above.  A 1 x 1 matrix makes no LAPACK call:
    its inverse is ``1 / x``.

    Every inverse of the package is taken here, so this owns the verdict that
    an operand is singular: when the cut drops the rank, it raises the
    caller's ``error`` as "<subject> is singular: numerical rank r of n",
    or "<subject> of shape <shape> is singular: ..." when ``shape`` is
    given, with that ``rank`` and, as ``sigma_min``, the smallest singular
    value the rule keeps (0.0 at rank 0)."""
    inv, s, kept = _cut(mat, scale=scale)
    rank = int(np.count_nonzero(kept))
    if rank < len(s):
        if shape is not None:
            subject = f"{subject} of shape {shape}"
        raise error(
            f"{subject} is singular: numerical rank {rank} of {len(s)}",
            rank=rank,
            sigma_min=float(s[rank - 1]) if rank else 0.0,
        )
    return inv, s


def numerical_rank(mat) -> int:
    """Number of singular values above the truncation threshold: those
    :func:`_cut` keeps."""
    return int(np.count_nonzero(_cut(_as_matrix(mat))[2]))
