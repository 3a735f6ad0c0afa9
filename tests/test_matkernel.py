"""Matrix kernel checks: residual oracles plus LAPACK cross-validation."""

import numpy as np
import pytest

from einalg import (
    DomainError,
    NumericalError,
    PairedShape,
    ShapeError,
    SingularMatrixError,
    fold,
    inv_matrix,
    numerical_rank,
    pinv,
    pinv_matrix,
    svd,
)
from einalg.matkernel import _pinv_stack

from conftest import rand_matrix


def svd_residuals(mat, d):
    recon = np.linalg.norm(d.u * d.s @ d.v.conj().T - mat)
    orth_u = np.linalg.norm(d.u.conj().T @ d.u - np.eye(d.rank))
    orth_v = np.linalg.norm(d.v.conj().T @ d.v - np.eye(d.rank))
    return recon, orth_u, orth_v


class TestSvd:
    def test_identity(self):
        d = svd(np.eye(3))
        assert np.allclose(d.s, [1, 1, 1])
        assert d.rank == 3

    def test_explicit_diagonal(self):
        d = svd(np.diag([3.0, 0.0]))
        assert d.rank == 1
        assert d.s[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("m,n", [(5, 3), (3, 5), (6, 6), (1, 4), (7, 2)])
    def test_reconstruction_and_orthogonality(self, rng, m, n):
        mat = rand_matrix(rng, m, n)
        d = svd(mat)
        recon, orth_u, orth_v = svd_residuals(mat, d)
        scale = max(1.0, np.linalg.norm(mat))
        assert recon <= 1e-10 * scale
        assert orth_u <= 1e-10
        assert orth_v <= 1e-10

    def test_singular_values_descending_and_match_lapack(self, rng):
        mat = rand_matrix(rng, 6, 6)
        d = svd(mat)
        assert all(d.s[i] >= d.s[i + 1] for i in range(len(d.s) - 1))
        assert np.allclose(d.s, np.linalg.svd(mat, compute_uv=False), rtol=1e-10)

    def test_singular_values_match_gram_eigenvalues(self, rng):
        mat = rand_matrix(rng, 6, 6)
        d = svd(mat)
        eig = np.sort(np.linalg.eigvalsh(mat.conj().T @ mat))[::-1]
        assert np.allclose(d.s, np.sqrt(np.clip(eig, 0, None)), rtol=1e-8)

    def test_zero_matrix_rank_zero(self):
        d = svd(np.zeros((3, 2)))
        assert d.rank == 0
        assert d.u.shape == (3, 0)
        assert d.v.shape == (2, 0)

    def test_rank_deficient_truncates(self, rng):
        mat = rand_matrix(rng, 5, 4, rank=2)
        assert svd(mat).rank == 2

    def test_rank_deficient_reconstruction_30x30(self, rng):
        mat = rand_matrix(rng, 30, 30, rank=25)
        d = svd(mat)
        recon, orth_u, orth_v = svd_residuals(mat, d)
        assert recon <= 1e-10 * np.linalg.norm(mat)
        assert orth_u <= 1e-10 and orth_v <= 1e-10
        assert d.rank == 25

    def test_zero_row_rank_deficiency_converges(self, rng):
        # two kinds of rank loss at once, a zero row and two equal columns:
        # the rank rule keeps exactly the three nonzero singular values, and
        # LAPACK's factors stay orthonormal and reconstruct the matrix
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat[3, :] = 0.0
        mat[:, 0] = mat[:, 1]  # coincident columns on top of a zero row
        d = svd(mat)
        assert d.rank == np.linalg.matrix_rank(mat) == 3
        recon, orth_u, orth_v = svd_residuals(mat, d)
        assert recon <= 1e-10 * np.linalg.norm(mat)
        assert orth_u <= 1e-10 and orth_v <= 1e-10

    def test_tol_scales_threshold(self, rng):
        # the rank multiplier is set through pinv: at 1e9 the cut passes 1e-8
        mat = np.diag([1.0, 1e-8])
        assert svd(mat).rank == 2
        t = fold(mat, PairedShape((2,), (2,)))
        assert np.linalg.matrix_rank(pinv(t).matrix) == 2
        assert np.array_equal(pinv(t, tol=1e9).matrix, np.diag([1.0, 0.0]))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError):
            svd(np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError):
            svd(np.zeros(4))


class TestPinvMatrix:
    def test_identity(self):
        assert np.allclose(pinv_matrix(np.eye(3)), np.eye(3))

    def test_penrose_conditions_various_ranks(self, rng):
        for m, n, rank in [(4, 4, 4), (5, 3, 2), (3, 5, 1), (4, 3, 0)]:
            mat = rand_matrix(rng, m, n, rank=rank)
            p = pinv_matrix(mat)
            scale = max(1.0, np.linalg.norm(mat))
            assert np.linalg.norm(mat @ p @ mat - mat) <= 1e-10 * scale
            assert np.linalg.norm(p @ mat @ p - p) <= 1e-10 * scale
            assert np.linalg.norm((mat @ p).conj().T - mat @ p) <= 1e-10
            assert np.linalg.norm((p @ mat).conj().T - p @ mat) <= 1e-10

    def test_double_pinv_round_trip(self, rng):
        mat = rand_matrix(rng, 5, 3, rank=2)
        assert np.allclose(pinv_matrix(pinv_matrix(mat)), mat, atol=1e-10)

    def test_matches_lapack_pinv(self, rng):
        mat = rand_matrix(rng, 6, 4, rank=3)
        assert np.allclose(pinv_matrix(mat), np.linalg.pinv(mat), atol=1e-10)

    def test_zero_matrix(self):
        assert np.array_equal(pinv_matrix(np.zeros((3, 2))), np.zeros((2, 3)))


class TestPinvStack:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_each_slice_is_pinv_matrix(self, rng, k):
        # one LAPACK call for the stack, the same bits as one call per slice,
        # for full-rank, rank-deficient, zero and Hermitian slices
        gram = rand_matrix(rng, 6, k, rank=max(k - 1, 0))
        slices = [
            rand_matrix(rng, k, k),
            rand_matrix(rng, k, k, rank=k - 1),
            np.zeros((k, k)),
            gram.conj().T @ gram,
        ]
        stack = np.stack(slices).astype(np.complex128)
        got = _pinv_stack(stack)
        assert len(got) == len(slices)
        for mat, p in zip(slices, got):
            assert np.array_equal(p, pinv_matrix(mat))
        # a scaled cut is set through pinv
        shape = PairedShape((k,), (k,))
        got = _pinv_stack(stack, tol=1e6)
        assert len(got) == len(slices)
        for mat, p in zip(slices, got):
            assert np.array_equal(p, pinv(fold(mat, shape), tol=1e6).matrix)


class TestOverflow:
    # a retained singular value below 1/DBL_MAX: the inverse is not finite.
    # The public functions raise, without a warning (regression: they
    # returned the non-finite matrix); the private stack leaves the entries
    # to its checked callers
    def test_pinv_of_subnormal_is_not_finite(self):
        with pytest.raises(NumericalError, match="^pinv_matrix overflowed"):
            pinv_matrix(np.array([[5e-324]]))

    def test_inverse_of_subnormal_is_not_finite(self):
        with pytest.raises(NumericalError, match="^inv_matrix overflowed"):
            inv_matrix(np.array([[1e-310, 0.0], [0.0, 1e-310]]))

    def test_stack_of_subnormal_is_not_finite(self):
        got = _pinv_stack(np.array([[[5e-324 + 0j]], [[2.0]]]))
        assert not np.isfinite(got[0]).any()
        assert got[1] == 0.5

    @pytest.mark.parametrize("fn", [svd, numerical_rank, pinv_matrix, inv_matrix])
    def test_singular_value_beyond_float_range(self, fn):
        # regression: LAPACK gives s = (inf, 3.4e291) for this finite rank-1
        # matrix, and the rank rule cut both, so svd and numerical_rank
        # reported rank 0 and pinv_matrix returned the zero matrix
        with pytest.raises(NumericalError, match="^SVD of a 2 x 2 matrix overflowed"):
            fn(np.full((2, 2), 1e308))

    def test_stack_with_sigma_max_beyond_float_range(self):
        with pytest.raises(NumericalError, match="^SVD of a 2 x 2 matrix overflowed"):
            _pinv_stack(np.stack([np.eye(2), np.full((2, 2), 1e308)]).astype(np.complex128))


class TestEmpty:
    # no entries: nothing to decide, and the results are empty of the
    # transposed shape
    @pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (3, 0)])
    def test_svd_rank_and_pinv(self, m, n):
        mat = np.zeros((m, n))
        d = svd(mat)
        assert d.rank == numerical_rank(mat) == 0
        assert d.u.shape == (m, 0) and d.s.shape == (0,) and d.v.shape == (n, 0)
        assert pinv_matrix(mat).shape == (n, m)

    def test_inverse(self):
        assert inv_matrix(np.zeros((0, 0))).shape == (0, 0)
        with pytest.raises(ShapeError):
            inv_matrix(np.zeros((0, 3)))


class TestInvMatrix:
    def test_identity(self):
        assert np.allclose(inv_matrix(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        got = inv_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert np.allclose(got, [[0.5, 0.0], [0.0, 0.25]])

    def test_residuals_well_conditioned(self, rng):
        mat = rand_matrix(rng, 8, 8)
        inv = inv_matrix(mat)
        assert np.linalg.norm(mat @ inv - np.eye(8)) <= 1e-10
        assert np.linalg.norm(inv @ mat - np.eye(8)) <= 1e-10

    def test_rectangular_rejected(self, rng):
        with pytest.raises(ShapeError):
            inv_matrix(rand_matrix(rng, 3, 2))

    def test_singular_raises_with_rank(self, rng):
        mat = rand_matrix(rng, 4, 4, rank=3)
        with pytest.raises(SingularMatrixError) as exc:
            inv_matrix(mat)
        assert exc.value.rank == 3
        assert exc.value.sigma_min > 0
        assert type(exc.value) is SingularMatrixError
        assert str(exc.value) == "matrix is singular: numerical rank 3 of 4"
        assert exc.value.sigma_min == np.linalg.svd(mat, full_matrices=False)[1][2]


class TestNumericalRank:
    def test_ranks(self, rng):
        assert numerical_rank(np.eye(4)) == 4
        assert numerical_rank(np.zeros((3, 3))) == 0
        mat = rand_matrix(rng, 6, 5, rank=3)
        assert numerical_rank(mat) == np.linalg.matrix_rank(mat) == 3
