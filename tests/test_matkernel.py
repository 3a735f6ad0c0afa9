"""Matrix kernel checks: residual oracles plus LAPACK cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einalg import (
    DomainError,
    EinsteinTensor,
    NumericalError,
    PairedShape,
    ShapeError,
    SingularMatrixError,
    SingularTensorError,
    fold,
    inv_matrix,
    inverse,
    numerical_rank,
    pinv,
    pinv_matrix,
    svd,
)
from einalg.matkernel import _cut, _lapack_svd
from einalg.tensor import _returned

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
        got = _cut(stack)[0]
        assert len(got) == len(slices)
        for mat, p in zip(slices, got):
            assert np.array_equal(p, pinv_matrix(mat))
        # a scaled cut is set through pinv
        shape = PairedShape((k,), (k,))
        got = _cut(stack, tol=1e6)[0]
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
        got = _cut(np.array([[[5e-324 + 0j]], [[2.0]]]))[0]
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
            _cut(np.stack([np.eye(2), np.full((2, 2), 1e308)]).astype(np.complex128))[0]


#: Complex numbers whose parts span the float range, 0 and subnormals included
_COMPLEX = st.builds(
    complex,
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALAR = PairedShape((1,), (1,))


def _outcome(call):
    """``(value, None)``, or ``(None, (type, message))`` when ``call``
    raises a :class:`NumericalError`."""
    try:
        return call(), None
    except NumericalError as err:
        return None, (type(err), str(err))


def _lapack_pinv(x):
    """The pseudoinverse of ``[[x]]`` from LAPACK's SVD (``np.linalg.pinv``),
    refused as the kernel refuses it for any larger matrix: a largest
    singular value beyond the float range, or a result that is not finite."""
    mat = np.array([[x]], dtype=np.complex128)
    _lapack_svd(mat)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _returned("pinv", _SCALAR, np.linalg.pinv(mat)).matrix[0, 0]


class TestOneByOne:
    # a 1 x 1 matrix x is inverted as 1 / x, with no LAPACK call, under the
    # same rank rule and overflow verdicts as a matrix LAPACK decomposes;
    # near the largest float it also answers where LAPACK's SVD fails
    @settings(max_examples=300, deadline=None)
    @given(_COMPLEX)
    def test_pinv_agrees_with_lapack(self, x):
        got, refused = _outcome(lambda: pinv(EinsteinTensor(_SCALAR, [[x]])).matrix[0, 0])
        want, lapack_refused = _outcome(lambda: _lapack_pinv(x))
        if lapack_refused and not refused and np.isfinite(np.abs(x)):
            # LAPACK's SVD can fail on a finite |x| at the top of the range
            # (test_result_near_the_largest_float), where 1 / x is
            # representable; LAPACK gives it from x / 4
            want, lapack_refused = _lapack_pinv(x / 4) / 4, None
        assert refused == lapack_refused
        if refused is None:
            # 4 ulp of |want|, or of the smallest subnormal below the normal range
            assert abs(got - want) <= 4 * max(abs(want) * 2.0**-52, 2.0**-1074)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_COMPLEX, min_size=1, max_size=6), st.sampled_from([1.0, 1e6, 2.0**60]))
    def test_stack_slice_gets_its_bits_alone(self, xs, tol):
        stack = np.array(xs, dtype=np.complex128).reshape(-1, 1, 1)
        alone = [_outcome(lambda: _cut(mat, tol)[0])[0] for mat in stack]
        if any(p is None for p in alone):
            with pytest.raises(NumericalError):
                _cut(stack, tol)[0]
            return
        got = _cut(stack, tol)[0]
        assert got.shape == stack.shape
        for p, q in zip(got, alone):
            assert np.array_equal(p, q, equal_nan=True)

    def test_cut_by_tol(self):
        # |x| * 2**-52 * tol at or above |x| cuts it, as for any matrix
        stack = np.array([[[3.0 + 4.0j]], [[0.0]]])
        assert np.array_equal(_cut(stack, tol=2.0**52)[0], np.zeros((2, 1, 1)))
        assert _cut(stack, tol=2.0**52 - 1)[0][0, 0, 0] == pytest.approx(0.12 - 0.16j, rel=1e-15)

    def test_zero_has_rank_0(self):
        zero = EinsteinTensor(_SCALAR, [[0.0]])
        assert pinv(zero).matrix[0, 0] == 0
        assert pinv_matrix(np.zeros((1, 1)))[0, 0] == 0
        with pytest.raises(SingularTensorError) as exc:
            inverse(zero)
        assert str(exc.value) == "tensor of shape (1 | 1) is singular: numerical rank 0 of 1"
        assert exc.value.rank == 0 and exc.value.sigma_min == 0.0
        with pytest.raises(SingularMatrixError) as exc:
            inv_matrix(np.zeros((1, 1)))
        assert str(exc.value) == "matrix is singular: numerical rank 0 of 1"
        assert exc.value.rank == 0 and exc.value.sigma_min == 0.0

    @pytest.mark.parametrize("fn", [pinv_matrix, inv_matrix])
    def test_singular_value_beyond_float_range(self, fn):
        with pytest.raises(NumericalError, match=r"^SVD of a 1 x 1 matrix overflowed: sigma_max is not finite$"):
            fn(np.array([[1.5e308 + 1.5e308j]]))

    def test_stack_overflow_names_the_stage(self):
        stack = np.array([[[1.0]], [[1.5e308 - 1.5e308j]]])
        with pytest.raises(NumericalError, match=r"^decompose_update overflowed: sigma_max is not finite$"):
            _cut(stack, stage="decompose_update")[0]

    def test_result_near_the_largest_float(self):
        # |x| is finite, but numpy's own complex division gives 1 / x = 0
        # here: its denominator, about |x|^2 / 1e308, overflows
        got = _cut(np.array([[[1e308 + 1e308j]]]))[0][0, 0, 0]
        assert np.isclose(got, 5e-309 - 5e-309j, rtol=1e-14, atol=0.0)
        # LAPACK's own SVD of this x gives sigma_max = nan, though |x| is the
        # largest float, so the LAPACK route refused it
        x = 1.8941775056029057e300 + 1.7976931348623157e308j
        got = pinv(EinsteinTensor(_SCALAR, [[x]])).matrix[0, 0]
        assert got == pytest.approx(_lapack_pinv(x / 4) / 4, rel=1e-14)


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
