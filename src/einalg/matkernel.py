"""Dense complex matrix kernel: SVD, pseudoinverse, inverse.

The decomposition is LAPACK's SVD as bundled with numpy, truncated at the
standard numerical-rank threshold ``sigma_max * max(m, n) * 2**-52``: passing
``tol`` scales that default, so ``tol=1.0`` is the default behavior.
Inverses are assembled as ``(v / s) @ u^H`` without floating-point warnings:
a retained singular value below about 1e-308 makes them overflow to a
non-finite matrix, which the tensor layer reports as a numerical error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, SingularMatrixError

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
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={mat.ndim}")
    if not np.isfinite(mat).all():
        raise DomainError("matrix entries must be finite")
    return mat


def _rank_floor(scale: float, shape: tuple[int, ...], tol: float) -> float:
    """``tol * scale * max(m, n) * 2**-52``, the rank rule of :func:`svd` and of
    the split in :func:`einalg.woodbury.decompose_update`: at or below it is residue."""
    return tol * scale * max(shape) * _EPS


def _lapack_svd(mat: np.ndarray):
    """LAPACK's thin SVD of a matrix or of a stack of them."""
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as err:
        m, n = mat.shape[-2:]
        raise NumericalError(f"SVD of a {m} x {n} matrix failed: {err}") from err


def _kept(s: np.ndarray, shape: tuple[int, ...], tol: float, scale: float | None = None) -> np.ndarray:
    """Which singular values of a matrix of ``shape``, or of each matrix of a
    stack, are above the rank rule of their own largest, or of ``scale`` when
    given.  This is the kernel's one rank cut."""
    return s > _rank_floor(s[..., :1] if scale is None else scale, shape, tol)


def _inverted(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """``(v / s) @ u^H`` of a thin SVD or of a stack of them, with ``s = inf``
    where a value is cut, which makes its column an exact zero; an overflow
    leaves non-finite entries, not a warning.  ``u`` and ``vh`` are LAPACK's
    own arrays and are overwritten: the only new array is the result."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.conj(vh, out=vh)
        vh /= s[..., None]
        return vh.swapaxes(-1, -2) @ np.conj(u, out=u).swapaxes(-1, -2)


def svd(mat, tol: float = 1.0) -> Svd:
    """Thin SVD truncated at ``tol * sigma_max * max(m, n) * 2**-52``."""
    mat = _as_matrix(mat)
    u, s, vh = _lapack_svd(mat)
    rank = int(np.count_nonzero(_kept(s, mat.shape, tol)))
    return Svd(u=u[:, :rank], s=s[:rank], v=vh[:rank].conj().T)


def pinv_matrix(mat, tol: float = 1.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD."""
    return _pinv_stack(_as_matrix(mat), tol=tol)


def _pinv_stack(stack: np.ndarray, tol: float = 1.0) -> np.ndarray:
    """:func:`pinv_matrix` of a finite matrix, or of each finite matrix of a
    stack from one LAPACK call, with no check of the entries.

    Every pseudoinverse of the kernel is cut and assembled here, so a slice
    of a stack gets the bits it gets alone: LAPACK factors each slice as it
    would alone, and the cut and the assembly act on each slice alike."""
    u, s, vh = _lapack_svd(stack)
    return _inverted(u, np.where(_kept(s, stack.shape[-2:], tol), s, np.inf), vh)


def inv_matrix(mat) -> np.ndarray:
    """Inverse of a square, numerically full-rank matrix."""
    mat = _as_matrix(mat)
    m, n = mat.shape
    if m != n:
        raise ShapeError(f"inverse needs a square matrix, got {m} x {n}")
    return _inverse(mat)[0]


def _inverse(mat: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`inv_matrix` of a finite square matrix, with no check of the
    entries, and the matrix's singular values, largest first.  ``scale``, at
    least ``sigma_max``, replaces it in the rank rule: for a matrix summed from
    terms of that size, whose rounding it has to stand above."""
    u, s, vh = _lapack_svd(mat)
    rank = int(np.count_nonzero(_kept(s, mat.shape, 1.0, scale)))
    if rank < len(s):
        raise SingularMatrixError(
            f"matrix is singular: numerical rank {rank} of {len(s)}",
            rank=rank,
            sigma_min=float(s[rank - 1]) if rank else 0.0,
        )
    return _inverted(u, s, vh), s


def numerical_rank(mat) -> int:
    """Number of singular values above the truncation threshold."""
    return svd(mat).rank
