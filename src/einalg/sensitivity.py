"""Multilinear solver and normalized-error bounds for perturbed systems.

A system ``a * x = d`` is solved by the particular solution ``x = a+ * d``
(the free null-space family is documented but never materialized).  The system
is consistent exactly when ``a a+ d = d``; the solver reports that residual.

For a perturbed system ``(a + u b v) * y = d + delta_d`` the closed-form bound

    ``E_n <= (1 + eps_D) |a|^3 (2 eps_A^2 |a+| + eps_A^3 |a| + eps_A^4 |a|^2 |a+|)
             + eps_D |a| |a+|``

limits the normalized solution change ``E_n = |y - x| / |x|`` whenever the
split parts of the coefficient perturbation satisfy ``|x_i|, |e_i| <=
eps_A |a|`` and ``|delta_d| <= eps_D |d|``.  :func:`measure_error` runs the
whole pipeline (solve, update the pseudoinverse, re-solve, infer the eps
values from the split the update actually made) and reports the measured
error next to the bound; :func:`sweep` evaluates the bound across a grid of
perturbation levels and norm scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSolutionError, DomainError
from .inverses import pinv
from .shapes import PairedShape, _conform, _sequence
from .tensor import (
    EinsteinTensor, _finite, _frobenius, _nonnegative, _number, _quiet_overflow, _relative, _returned,
    fro_norm,
)
from .woodbury import CONDITION_TOL, LowRankUpdate, _updated

__all__ = [
    "SolveResult",
    "PerturbationSpec",
    "BoundReport",
    "solve",
    "norm_bound",
    "measure_error",
    "sweep",
]

CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class SolveResult:
    """Particular solution plus the consistency verdict for ``a * x = d``."""

    x: EinsteinTensor
    consistent: bool
    consistency_residual: float


@dataclass(frozen=True)
class PerturbationSpec:
    """Relative perturbation levels of the coefficient tensor and right side,
    stored as the floats :func:`~einalg.tensor._nonnegative` reads: each
    must be finite and >= 0, else :class:`~einalg.errors.DomainError`."""

    eps_a: float
    eps_d: float

    def __post_init__(self):
        object.__setattr__(self, "eps_a", _nonnegative("eps_a", self.eps_a))
        object.__setattr__(self, "eps_d", _nonnegative("eps_d", self.eps_d))


@dataclass(frozen=True)
class BoundReport:
    """One perturbation scenario: norms, eps levels, bound, measured error.

    ``bound`` is computed from the stored norms and eps levels via
    :func:`norm_bound`, so construction raises
    :class:`~einalg.errors.DomainError` unless both eps levels are finite
    and >= 0; the eps levels are stored as :class:`PerturbationSpec` reads
    them.  ``measured_error`` is None for bound-only rows (e.g. sweep
    grids).
    """

    norm_a: float
    norm_a_pinv: float
    eps_a: float
    eps_d: float
    bound: float = field(init=False)
    measured_error: float | None = None

    def __post_init__(self):
        spec = PerturbationSpec(self.eps_a, self.eps_d)
        object.__setattr__(self, "eps_a", spec.eps_a)
        object.__setattr__(self, "eps_d", spec.eps_d)
        object.__setattr__(self, "bound", norm_bound(self.norm_a, self.norm_a_pinv, spec))


@_quiet_overflow
def solve(a: EinsteinTensor, d: EinsteinTensor, tol: float = CONSISTENCY_TOL) -> SolveResult:
    """Solve ``a * x = d`` by the pseudoinverse and flag consistency.

    Returns ``x = a+ * d``; for an invertible coefficient this is the unique
    solution, otherwise it is the least-squares-style candidate and
    ``consistent`` records whether it solves the system exactly (residual
    ``|a a+ d - d| / max(1, |d|)`` at most ``tol``).  Raises
    :class:`~einalg.errors.DomainError` unless ``tol`` is finite and >= 0,
    and :class:`~einalg.errors.NumericalError` if ``x`` or that residual
    overflows.
    """
    tol = _nonnegative("tol", tol)
    _conform("solve", "the row modes of d", d.row_dims, a.row_dims)
    shape = PairedShape(a.col_dims, d.col_dims)
    x = _returned("solve (x = a^+ d)", shape, np.matmul(pinv(a).matrix, d.matrix))
    residual = _relative(np.matmul(a.matrix, x.matrix) - d.matrix, fro_norm(d))
    _finite("solve", "the residual a x - d relative to max(1, |d|)", residual)
    return SolveResult(x=x, consistent=residual <= tol, consistency_residual=residual)


def norm_bound(norm_a: float, norm_a_pinv: float, p: PerturbationSpec) -> float:
    """Closed-form normalized-error bound at the given norms and eps levels.

    Raises :class:`~einalg.errors.DomainError` unless both norms are finite
    and >= 0 and ``p`` is a :class:`PerturbationSpec`, and
    :class:`~einalg.errors.NumericalError` if the bound is not finite
    (``|a|^3`` overflows once ``|a|`` passes about 5.6e102).
    """
    norm_a, norm_a_pinv = _nonnegative("norm_a", norm_a), _nonnegative("norm_a_pinv", norm_a_pinv)
    if not isinstance(p, PerturbationSpec):
        raise DomainError(f"p must be a PerturbationSpec, got {type(p).__name__}")
    eps_a, eps_d = p.eps_a, p.eps_d
    try:
        coefficient_terms = (
            2.0 * eps_a**2 * norm_a_pinv
            + eps_a**3 * norm_a
            + eps_a**4 * norm_a**2 * norm_a_pinv
        )
        bound = (1.0 + eps_d) * norm_a**3 * coefficient_terms + eps_d * norm_a * norm_a_pinv
    except OverflowError:  # a float power beyond the float range
        bound = math.inf
    return _finite("norm_bound", "the bound", bound)


@_quiet_overflow
def measure_error(
    a: EinsteinTensor,
    d: EinsteinTensor,
    upd: LowRankUpdate,
    delta_d: EinsteinTensor,
) -> BoundReport:
    """Solve the base and the perturbed system and compare error to bound.

    The perturbed system goes through the low-rank update machinery (the
    split -> check -> identity | capacitance | fallback step of
    :func:`~einalg.woodbury.update_pinv` at its default tolerance), so
    identity-conforming perturbations, and those inside ``a``'s column
    spaces, take a fast path, and there the updated pseudoinverse
    ``s^+ = a^+ + l r`` is never formed:
    ``y - x = a^+ delta_d + l (r (d + delta_d))`` costs O(N^2) for
    ``a^+ delta_d`` plus O(NK).  The eps levels
    are inferred from the actual tensors (``eps_a`` as the largest of the
    split's ``|x1|``, ``|x2|``, ``|e1|``, ``|e2|`` over ``|a|``, ``eps_d =
    |delta_d| / |d|``) so that the reported bound is valid for the
    perturbation that actually happened.  The split stays matrices and
    only the norms it kept are read, so on the identity path the one tensor
    built is ``a^+``.  Raises :class:`~einalg.errors.NumericalError` if
    ``x``, the update, ``y``, ``|a|``, ``|a^+|``, ``eps_a`` or ``eps_d``
    overflows, and no numpy floating-point error, whatever numpy's error
    state: the whole call runs under the package's one guard.
    """
    _conform("measure_error", "the shape of delta_d", delta_d.shape, d.shape)
    _conform("measure_error", "the row modes of d", d.row_dims, a.row_dims)
    a_pinv = pinv(a)
    ap = a_pinv.matrix
    x = np.matmul(ap, d.matrix)
    norm_x = _finite("measure_error", "the norm of the solution x = a^+ d", _frobenius(x))
    if norm_x == 0.0:
        raise DegenerateSolutionError("base solution is zero; E_n is undefined")

    split, _, s_pinv, factors = _updated("measure_error", a, a_pinv, upd, CONDITION_TOL)
    rhs = d.matrix + delta_d.matrix
    if factors is None:
        y_minus_x = np.matmul(s_pinv.matrix, rhs) - x
    else:
        left, right = factors
        y_minus_x = np.matmul(ap, delta_d.matrix) + np.matmul(left, np.matmul(right, rhs))
    measured_error = _frobenius(y_minus_x) / norm_x
    _finite("measure_error", "the measured error |y - x| / |x|", measured_error)

    norm_a = _finite("measure_error", "the norm |a|", fro_norm(a))
    norm_a_pinv = _finite("measure_error", "the norm |a^+|", fro_norm(a_pinv))
    norms = split.norms
    eps_a = max(norms["x1"], norms["x2"], norms["e1"], norms["e2"]) / norm_a
    eps_a = _finite("measure_error", "eps_a = max(|x1|, |x2|, |e1|, |e2|) / |a|", eps_a)
    eps_d = _finite("measure_error", "eps_d = |delta_d| / |d|", fro_norm(delta_d) / fro_norm(d))
    return BoundReport(
        norm_a=norm_a,
        norm_a_pinv=norm_a_pinv,
        eps_a=eps_a,
        eps_d=eps_d,
        measured_error=measured_error,
    )


def sweep(
    a: EinsteinTensor,
    d: EinsteinTensor,
    eps_a_list,
    eps_d: float,
    alpha_grid,
) -> list[BoundReport]:
    """Evaluate the bound over scalings ``alpha * a`` for each eps level.

    Scaling by ``alpha`` multiplies the coefficient norm and divides the
    pseudoinverse norm, so both are derived analytically from one decomposition
    of ``a``.  Rows come back ordered by ``(eps_a, alpha)``; the bound does not
    depend on ``d`` (kept for interface symmetry with the system under study).
    Each grid is a sequence of numbers other than text (a ``str`` or
    ``bytes`` is not one), else :class:`~einalg.errors.DomainError` naming
    it.  Raises :class:`~einalg.errors.NumericalError` if a scaled norm or a
    bound is not finite.
    """
    eps_a_list = _sequence(eps_a_list, "eps_a_list", "numbers", DomainError)
    alpha_grid = _sequence(alpha_grid, "alpha_grid", "numbers", DomainError)
    eps_a_list = sorted(_number("eps_a", eps_a) for eps_a in eps_a_list)
    alpha_grid = sorted(_number("alpha", alpha) for alpha in alpha_grid)
    if not eps_a_list or not alpha_grid:
        raise DomainError("eps and alpha grids must be nonempty")
    if not all(0 < al < math.inf for al in alpha_grid):
        raise DomainError("alpha scalings must be finite and positive")
    _conform("sweep", "the row modes of d", d.row_dims, a.row_dims)
    norm_a = fro_norm(a)
    norm_a_pinv = fro_norm(pinv(a))
    # the grid is sorted and positive, so |a^+| / alpha is largest at its
    # first alpha and alpha |a| at its last
    first, last = alpha_grid[0], alpha_grid[-1]
    _finite("sweep", f"|a^+| / alpha at alpha = {first}", norm_a_pinv / first)
    _finite("sweep", f"alpha |a| at alpha = {last}", last * norm_a)
    return [
        BoundReport(norm_a=alpha * norm_a, norm_a_pinv=norm_a_pinv / alpha, eps_a=eps_a, eps_d=eps_d)
        for eps_a in eps_a_list
        for alpha in alpha_grid
    ]
