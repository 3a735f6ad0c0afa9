"""Dense complex matrix kernel: SVD, pseudoinverse, inverse.

The decomposition is LAPACK's SVD as bundled with numpy, truncated at the
standard numerical-rank threshold ``sigma_max * max(m, n) * 2**-52``: passing
``tol`` scales that default, so ``tol=1.0`` is the default behavior.
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


def svd(mat, tol: float = 1.0) -> Svd:
    """Thin SVD truncated at ``tol * sigma_max * max(m, n) * 2**-52``."""
    mat = _as_matrix(mat)
    m, n = mat.shape
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD of a {m} x {n} matrix failed: {err}") from err
    sigma_max = s[0] if len(s) else 0.0
    rank = int(np.count_nonzero(s > tol * sigma_max * max(m, n) * _EPS))
    return Svd(u=u[:, :rank], s=s[:rank], v=vh[:rank].conj().T)


def pinv_matrix(mat, tol: float = 1.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD."""
    d = svd(mat, tol=tol)
    return (d.v / d.s) @ d.u.conj().T


def inv_matrix(mat) -> np.ndarray:
    """Inverse of a square, numerically full-rank matrix."""
    mat = _as_matrix(mat)
    m, n = mat.shape
    if m != n:
        raise ShapeError(f"inverse needs a square matrix, got {m} x {n}")
    d = svd(mat)
    if d.rank < n:
        raise SingularMatrixError(
            f"matrix is singular: numerical rank {d.rank} of {n}",
            rank=d.rank,
            sigma_min=float(d.s[-1]) if d.rank else 0.0,
        )
    return (d.v / d.s) @ d.u.conj().T


def numerical_rank(mat, tol: float = 1.0) -> int:
    """Number of singular values above the truncation threshold."""
    return svd(mat, tol=tol).rank
