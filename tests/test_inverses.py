"""Tensor inverse / pseudoinverse behavior, including the Tikhonov-limit oracle,
and the rank and invertibility predicates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einalg import (
    DomainError,
    EinsteinTensor,
    NumericalError,
    PairedShape,
    ShapeError,
    SingularTensorError,
    einstein_product,
    fold,
    fro_norm,
    full_column_rank,
    full_row_rank,
    identity,
    inverse,
    is_invertible,
    numerical_rank,
    pinv,
    scale,
    unfold_rank,
    verify_penrose,
    zeros,
)

from conftest import rand_tensor


def tikhonov_pinv(a, lambdas=(1e-6, 1e-8)):
    """Regularized-limit pseudoinverse: a^H (a a^H + l I)^-1, extrapolated l -> 0.

    Solves the regularized systems with LAPACK, so this route shares nothing
    with the package's own decomposition kernel.  The smaller lambda cannot go
    much below 1e-8: the solve's rounding error grows like sigma_max^2 / l
    times machine epsilon and would swamp the extrapolation.
    """
    mat = a.matrix
    m = mat.shape[0]
    values = []
    for lam in lambdas:
        values.append(mat.conj().T @ np.linalg.solve(mat @ mat.conj().T + lam * np.eye(m), np.eye(m)))
    l1, l2 = lambdas
    extrapolated = (l1 * values[1] - l2 * values[0]) / (l1 - l2)
    return fold(extrapolated, a.shape.transposed)


class TestInverse:
    def test_identity(self):
        assert inverse(identity([2, 2])) == identity([2, 2])

    def test_scaled_identity(self):
        got = inverse(scale(identity([2, 2]), 2.0))
        assert np.allclose(got.matrix, 0.5 * np.eye(4))

    def test_worked_example_singular(self, example_a):
        with pytest.raises(SingularTensorError) as exc:
            inverse(example_a)
        assert exc.value.rank == 3
        assert type(exc.value) is SingularTensorError
        assert str(exc.value) == "tensor of shape (2x2 | 2x2) is singular: numerical rank 3 of 4"
        # the smallest kept singular value, (sqrt(5) - 1) / 2
        assert exc.value.sigma_min == np.linalg.svd(example_a.matrix, full_matrices=False)[1][2]
        assert exc.value.sigma_min == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-15)

    def test_shape_formatted_only_when_singular(self, monkeypatch):
        # the message names the shape, but an invertible tensor never builds it
        def unformatted(shape):
            raise AssertionError(f"formatted {shape.row_dims}")

        monkeypatch.setattr(PairedShape, "__str__", unformatted)
        assert inverse(identity([2, 2])) == identity([2, 2])

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            inverse(rand_tensor(rng, (2,), (3,)))

    def test_two_sided_residual(self, rng):
        t = rand_tensor(rng, (2, 2), (2, 2)) + scale(identity([2, 2]), 4.0)
        inv = inverse(t)
        eye = identity([2, 2])
        assert fro_norm(einstein_product(t, inv) - eye) <= 1e-10
        assert fro_norm(einstein_product(inv, t) - eye) <= 1e-10


@st.composite
def near_rank_cut(draw):
    """Square ``Q1 diag(s) Q2^H`` at N = 2-16 whose smallest singular value is
    ``c max(m, n) 2**-52 s_max``, c in [0.25, 4]: the rounding of the product
    puts it on either side of the kernel's rank cut."""
    n = draw(st.integers(2, 16))
    c = draw(st.floats(0.25, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q1, q2 = (
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for _ in range(2)
    )
    s = np.sort(rng.uniform(0.5, 1.0, n))[::-1]
    s[-1] = c * n * 2.0**-52 * s[0]
    return fold((q1 * s) @ q2.conj().T, PairedShape((n,), (n,)))


class TestRankRule:
    @settings(max_examples=200, deadline=None)
    @given(near_rank_cut())
    # regression: LAPACK's SVD gives sigma_max = nan for this finite x, where
    # inverse gives 1 / x, and the four predicates raised NumericalError
    @example(EinsteinTensor(PairedShape((1,), (1,)), [[1.8941775056029057e300 + 1.7976931348623157e308j]]))
    def test_predicates_share_the_inverse_rule(self, t):
        try:
            inverse(t)
            inverted = True
        except SingularTensorError:
            inverted = False
        assert is_invertible(t) == inverted
        assert full_row_rank(t) == full_column_rank(t) == inverted
        assert unfold_rank(t) == numerical_rank(t.matrix)

    def test_rank_floor_of_the_largest_floats_is_finite(self):
        # regression: the floor tol * sigma_max * max(m, n) overflowed to inf
        # before the 2**-52 scaled it, which made this tensor rank 0
        t = EinsteinTensor(PairedShape((2,), (2,)), np.diag([1.2e308, 1.2e308]))
        want = np.diag([1 / 1.2e308, 1 / 1.2e308])
        assert np.allclose(pinv(t).matrix, want, rtol=1e-12, atol=0.0)
        assert np.allclose(inverse(t).matrix, want, rtol=1e-12, atol=0.0)
        assert is_invertible(t) and full_row_rank(t) and full_column_rank(t)
        assert unfold_rank(t) == numerical_rank(t.matrix) == 2


class TestOverflow:
    # regression: an inverse beyond the float range warned in the kernel and
    # then failed the tensor's finiteness check as an input error
    @pytest.mark.parametrize("entry", [5e-324, 1e-310])
    def test_pinv_overflow_is_numerical(self, entry):
        with pytest.raises(NumericalError, match="pinv overflowed"):
            pinv(EinsteinTensor(PairedShape((1,), (1,)), [[entry]]))

    @pytest.mark.parametrize("entry", [5e-324, 1e-310])
    def test_inverse_overflow_is_numerical(self, entry):
        with pytest.raises(NumericalError, match="inverse overflowed"):
            inverse(EinsteinTensor(PairedShape((1,), (1,)), [[entry]]))

    @pytest.mark.parametrize("fn", [pinv, unfold_rank, is_invertible, inverse])
    def test_singular_value_beyond_float_range(self, fn):
        # regression: the largest singular value of this finite rank-1 tensor
        # is inf, and the rank rule cut every value: rank 0, a zero pinv, and
        # a SingularTensorError "numerical rank 0 of 2" from inverse
        t = EinsteinTensor(PairedShape((2,), (2,)), np.full((2, 2), 1e308))
        with pytest.raises(NumericalError, match="^SVD of a 2 x 2 matrix overflowed") as exc:
            fn(t)
        assert type(exc.value) is NumericalError


class TestPinv:
    def test_worked_example_entries(self, example_a, example_a_pinv):
        got = pinv(example_a)
        assert got.shape == example_a.shape.transposed
        assert np.allclose(got.matrix, example_a_pinv.matrix, atol=1e-10)

    def test_zero_tensor(self):
        shape = PairedShape((2, 3), (2,))
        assert pinv(zeros(shape)) == zeros(shape.transposed)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_outside_its_domain_rejected(self, example_a, tol):
        # regression: nan and inf cut every singular value, and returned the
        # zero tensor (inf with a warning on a zero tensor); -1 acted as 0
        for a in (example_a, zeros(example_a.shape)):
            with pytest.raises(DomainError, match=f"tol must be finite and >= 0, got {tol}"):
                pinv(a, tol)

    def test_tol_used_as_read(self, example_a):
        # the float that the tol rule reads is the tol used and reported:
        # a Fraction gave the rank floor an object array, and PenroseReport
        # stored the Fraction itself
        assert pinv(example_a, Fraction(1, 2)).matrix.tobytes() == pinv(example_a, 0.5).matrix.tobytes()
        report = verify_penrose(example_a, pinv(example_a), Fraction(1, 10**10))
        assert type(report.tol) is float and report.tol == 1e-10

    def test_huge_dynamic_range(self):
        # regression: the Frobenius norm of this tensor overflows, which once
        # made the whole pseudoinverse come back as zeros
        shape = PairedShape((2,), (2,))
        got = pinv(fold(np.diag([1e200, 1e-200]), shape))
        assert np.allclose(got.matrix, np.diag([1e-200, 0.0]), rtol=1e-15, atol=0.0)

    def test_rectangular_shapes(self, rng):
        t = rand_tensor(rng, (3, 2), (2,))
        report = verify_penrose(t, pinv(t))
        assert report.passed

    def test_matches_tikhonov_limit(self, rng):
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        mat = q1 @ np.diag([2.0, 1.5, 1.0, 0.8, 0.0, 0.0]) @ q2.conj().T
        t = fold(mat, PairedShape((3, 2), (2, 3)))
        direct = pinv(t)
        oracle = tikhonov_pinv(t)
        assert fro_norm(direct - oracle) <= 1e-6

    def test_uniqueness_up_to_tolerance(self, rng):
        # any two candidates passing the four rules must essentially agree
        t = rand_tensor(rng, (2, 2), (2,))
        p1 = pinv(t)
        p2 = tikhonov_pinv(t)
        assert verify_penrose(t, p1).passed
        assert fro_norm(p1 - p2) <= 1e-6

    def test_agrees_with_inverse_when_invertible(self, rng):
        # both invert the same LAPACK SVD, and pinv cuts nothing of a
        # full-rank tensor: the same bits, which `einalg smw --mode
        # invertible` rests on
        t = rand_tensor(rng, (2, 2), (2, 2)) + scale(identity([2, 2]), 4.0)
        assert np.array_equal(pinv(t).matrix, inverse(t).matrix)

    def test_flattened_form_is_matrix_pinv_bit_exact(self, rng):
        # the tensor pseudoinverse is the fold of the matrix pseudoinverse,
        # same code path, so the arrays must match exactly
        from einalg import pinv_matrix, unfold

        t = rand_tensor(rng, (3, 2), (2, 2))
        assert np.array_equal(unfold(pinv(t)), pinv_matrix(unfold(t)))


class TestVerifyPenrose:
    def test_worked_example_pair_passes(self, example_a, example_a_pinv):
        report = verify_penrose(example_a, example_a_pinv)
        assert report.passed
        assert all(r <= 1e-12 for r in report.residuals)

    def test_zero_candidate_fails_rule_one(self, example_a):
        report = verify_penrose(example_a, zeros(example_a.shape.transposed))
        assert not report.passed
        assert report.residuals[0] == pytest.approx(1.0)

    def test_zero_candidate_huge_dynamic_range(self):
        # regression: |a| overflowed, so rule 1 read inf / inf = NaN
        a = fold(np.diag([1e200, 1e-200]), PairedShape((2,), (2,)))
        report = verify_penrose(a, zeros(a.shape.transposed))
        assert not report.passed
        assert report.residuals[0] == pytest.approx(1.0)

    def test_identity_pair_exact(self):
        report = verify_penrose(identity([2]), identity([2]))
        assert report.passed
        assert report.residuals == (0.0, 0.0, 0.0, 0.0)

    def test_shape_mismatch(self, example_a, rng):
        with pytest.raises(ShapeError):
            verify_penrose(example_a, rand_tensor(rng, (2, 2), (2,)))

    def test_overflowing_products_do_not_pass(self):
        # a x and x a overflow: every residual is NaN, which does not pass,
        # and no RuntimeWarning (an error under this suite's filter) comes first
        a = fold(np.full((2, 2), 1e300), PairedShape((2,), (2,)))
        report = verify_penrose(a, a)
        assert all(math.isnan(r) for r in report.residuals)
        assert not report.passed


class TestRank:
    def test_worked_example_rank(self, example_a):
        assert unfold_rank(example_a) == 3

    def test_identity_full_rank(self):
        assert unfold_rank(identity([2, 2])) == 4

    def test_zeros_rank_zero(self):
        assert unfold_rank(zeros(PairedShape((2, 2), (2,)))) == 0

    def test_full_rank_flags(self, rng):
        wide = rand_tensor(rng, (2,), (3,))
        assert full_row_rank(wide)
        assert not full_column_rank(wide)
        tall = wide.H
        assert full_column_rank(tall)
        assert not full_row_rank(tall)


class TestInvertible:
    def test_worked_example_not_invertible(self, example_a):
        assert not is_invertible(example_a)

    def test_identity_invertible(self):
        assert is_invertible(identity([3]))

    def test_injected_zero_singular_value(self, rng):
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        mat = q1 @ np.diag([1.5, 1.0, 0.7, 0.0]) @ q2.conj().T
        t = fold(mat, PairedShape((2, 2), (2, 2)))
        assert not is_invertible(t)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            is_invertible(rand_tensor(rng, (2,), (3,)))
