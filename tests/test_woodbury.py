"""Low-rank update identities: worked examples, random oracles, fallbacks."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einalg import (
    LowRankUpdate,
    NumericalError,
    PairedShape,
    ShapeError,
    SingularCapacitanceError,
    SplitParts,
    apply_update,
    check_conditions,
    decompose_update,
    einstein_product,
    fold,
    fro_norm,
    identity,
    inverse,
    measure_error,
    pinv,
    scale,
    smw_invertible,
    smw_pinv,
    smw_pinv_hermitian,
    smw_pinv_orthogonal,
    update_pinv,
    verify_penrose,
    zeros,
)
from einalg import woodbury

from conftest import (
    ILL_CONDITIONED_BASES,
    conditioned_tensor,
    rand_tensor,
    record_work,
    scalar1111,
)


@pytest.fixture
def ex1_update(ex1, example_b):
    return LowRankUpdate(u=ex1["u"], b=example_b, v=ex1["v"], order=2)


@pytest.fixture
def ex2_update(ex2, example_b):
    return LowRankUpdate(u=ex2["u"], b=example_b, v=ex2["v"], order=2)


def rand_invertible(rng, row_dims, boost=3.0):
    t = rand_tensor(rng, row_dims, row_dims)
    return t + scale(identity(row_dims), boost)


def low_rank_tensor(rng, row_dims, col_dims, rank, hermitian=False):
    """Random tensor of the given flattened rank, optionally Hermitian."""
    g = rand_tensor(rng, row_dims, (rank,))
    if hermitian:
        eig = rng.choice([-1.0, 1.0], rank) * rng.uniform(1.0, 2.0, rank)
        m = fold(np.diag(eig), PairedShape((rank,), (rank,)))
        return einstein_product(einstein_product(g, m), g.H)
    return einstein_product(g, rand_tensor(rng, (rank,), col_dims))


def null_space_part(rng, projector, row_dims, k_dims, target_norm=None):
    """Random tensor with columns orthogonal to the projector's range."""
    g = rand_tensor(rng, row_dims, k_dims)
    eye = identity(row_dims)
    y = einstein_product(eye - projector, g)
    if target_norm is not None and fro_norm(y) > 0:
        y = scale(y, target_norm / fro_norm(y))
    return y


class TestLowRankUpdateType:
    def test_shape_chain_validated(self, example_b, ex1, rng):
        with pytest.raises(ShapeError):
            LowRankUpdate(u=ex1["u"], b=example_b, v=ex1["v"], order=1)
        with pytest.raises(ShapeError):
            LowRankUpdate(u=ex1["u"], b=rand_tensor(rng, (2,), (2,)), v=ex1["v"], order=2)
        with pytest.raises(ShapeError):
            LowRankUpdate(u=ex1["u"], b=example_b, v=rand_tensor(rng, (2,), (2,)), order=2)


class TestApplyUpdate:
    def test_example1_corrected_tensor(self, example_a, ex1, ex1_update):
        got = apply_update(example_a, ex1_update)
        assert np.allclose(got.matrix, ex1["s"].matrix, atol=1e-14)

    def test_example2_corrected_tensor(self, example_a, ex2, ex2_update):
        got = apply_update(example_a, ex2_update)
        assert np.allclose(got.matrix, ex2["s"].matrix, atol=1e-14)

    def test_zero_middle_factor_is_noop(self, example_a, ex1):
        upd = LowRankUpdate(u=ex1["u"], b=scalar1111(0.0), v=ex1["v"], order=2)
        assert apply_update(example_a, upd) == example_a

    def test_shape_mismatch(self, ex1, example_b, rng):
        upd = LowRankUpdate(u=ex1["u"], b=example_b, v=ex1["v"], order=2)
        with pytest.raises(ShapeError):
            apply_update(rand_tensor(rng, (3,), (3,)), upd)


def rank_one_update(rng, rows, cols):
    return LowRankUpdate(
        u=rand_tensor(rng, rows, (1,)),
        b=fold([[2.0]], PairedShape((1,), (1,))),
        v=rand_tensor(rng, (1,), cols),
        order=1,
    )


class TestNonConformingOperands:
    """Each entry point rejects operands whose modes do not conform."""

    def test_smw_invertible_non_square_base_inverse(self, rng):
        upd = rank_one_update(rng, (2,), (3,))
        with pytest.raises(ShapeError, match="must be square"):
            smw_invertible(rand_tensor(rng, (3,), (2,)), upd, inverse(upd.b))

    def test_smw_invertible_update_not_conforming(self, rng):
        upd = rank_one_update(rng, (2,), (2,))
        with pytest.raises(ShapeError, match="does not conform"):
            smw_invertible(rand_invertible(rng, (3,)), upd, inverse(upd.b))

    def test_smw_invertible_middle_inverse_shape(self, rng):
        upd = rank_one_update(rng, (2,), (2,))
        with pytest.raises(ShapeError, match="middle-factor inverse"):
            smw_invertible(rand_invertible(rng, (2,)), upd, identity([2]))

    def test_decompose_update_pinv_not_transposed(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        with pytest.raises(ShapeError, match="not the transpose"):
            decompose_update(a, a, rank_one_update(rng, (2,), (3,)))

    def test_smw_pinv_base_pinv_not_conforming(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        upd = rank_one_update(rng, (2,), (3,))
        parts = decompose_update(a, pinv(a), upd)
        with pytest.raises(ShapeError, match="does not conform to the split"):
            smw_pinv(pinv(rand_tensor(rng, (2,), (2,))), parts, pinv(upd.b))

    def test_check_conditions_middle_factor_modes(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        upd = rank_one_update(rng, (2,), (3,))
        parts = decompose_update(a, pinv(a), upd)
        b = identity([2])
        with pytest.raises(ShapeError, match="middle factor"):
            check_conditions(parts, b, b)


class TestSmwInvertible:
    def test_zero_update_returns_base_inverse(self, rng):
        a = rand_invertible(rng, (2, 2))
        a_inv = inverse(a)
        u = zeros(PairedShape((2, 2), (1,)))
        v = zeros(PairedShape((1,), (2, 2)))
        b = fold([[2.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=v, order=1)
        got = smw_invertible(a_inv, upd, inverse(b))
        assert np.allclose(got.matrix, a_inv.matrix, atol=1e-14)

    def test_matches_direct_inverse(self, rng):
        for _ in range(20):
            a = rand_invertible(rng, (2, 2))
            b = rand_invertible(rng, (2,), boost=2.0)
            u = rand_tensor(rng, (2, 2), (2,))
            v = rand_tensor(rng, (2,), (2, 2))
            upd = LowRankUpdate(u=u, b=b, v=v, order=1)
            got = smw_invertible(inverse(a), upd, inverse(b))
            want = inverse(apply_update(a, upd))
            assert fro_norm(got - want) <= 1e-8 * fro_norm(want)

    def test_matrix_rank_one_oracle(self, rng):
        # base = identity, u = v^H = unit column: the classic rank-one formula
        # (i - e e^T / (1 + e^T e)) computed on flattened matrices.
        a = identity([2, 2])
        e = np.zeros((4, 1))
        e[2, 0] = 1.0
        u = fold(e, PairedShape((2, 2), (1,)))
        v = fold(e.T, PairedShape((1,), (2, 2)))
        b = fold([[1.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=v, order=1)
        got = smw_invertible(inverse(a), upd, inverse(b))
        want = np.eye(4) - (e @ e.T) / (1.0 + np.vdot(e, e).real)
        assert np.allclose(got.matrix, want, atol=1e-12)

    def test_singular_capacitance_raises(self):
        # b^-1 + v a^-1 u == 0 when the correction exactly cancels: use
        # a = i, b = 1 (scalar), u = e, v = -e^T so capacitance = 1 - 1 = 0.
        a = identity([2])
        e = np.zeros((2, 1))
        e[0, 0] = 1.0
        u = fold(e, PairedShape((2,), (1,)))
        v = fold(-e.T, PairedShape((1,), (2,)))
        b = fold([[1.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=v, order=1)
        with pytest.raises(SingularCapacitanceError) as exc:
            smw_invertible(inverse(a), upd, inverse(b))
        assert exc.value.rank == 0


class TestDecomposeUpdate:
    def test_example1_wholly_orthogonal(self, example_a, ex1, ex1_update):
        parts = decompose_update(example_a, pinv(example_a), ex1_update)
        assert fro_norm(parts.x1) <= 1e-13
        assert fro_norm(parts.x2) <= 1e-13
        assert np.allclose(parts.y1.matrix, ex1["u"].matrix, atol=1e-13)
        assert np.allclose(parts.y2.matrix, ex1["v"].H.matrix, atol=1e-13)

    def test_example2_split_parts(self, example_a, ex2, ex2_update):
        parts = decompose_update(example_a, pinv(example_a), ex2_update)
        assert np.allclose(parts.x1.matrix, ex2["x1"].matrix, atol=1e-12)
        assert np.allclose(parts.y1.matrix, ex2["y1"].matrix, atol=1e-12)
        assert np.allclose(parts.x2.matrix, ex2["x2h"].H.matrix, atol=1e-12)
        assert np.allclose(parts.y2.matrix, ex2["y2h"].H.matrix, atol=1e-12)

    def test_example_scaled_null_parts(self, example_a, ex2, ex2_update):
        parts = decompose_update(example_a, pinv(example_a), ex2_update)
        assert np.allclose(parts.e1.matrix, ex2["e1"].matrix, atol=1e-12)
        assert np.allclose(parts.e2.matrix, ex2["e2"].matrix, atol=1e-12)

    def test_invariants_on_random_input(self, rng):
        a = rand_tensor(rng, (2, 2), (3,))
        a_pinv = pinv(a)
        upd = LowRankUpdate(
            u=rand_tensor(rng, (2, 2), (2,)),
            b=rand_tensor(rng, (2,), (2,)),
            v=rand_tensor(rng, (2,), (3,)),
            order=1,
        )
        parts = decompose_update(a, a_pinv, upd)
        assert fro_norm(parts.x1 + parts.y1 - upd.u) <= 1e-12
        assert fro_norm(parts.x2 + parts.y2 - upd.v.H) <= 1e-12
        proj_left = einstein_product(a, a_pinv)
        proj_right = einstein_product(a_pinv, a)
        # x parts reproduce under projection, y parts annihilate
        assert fro_norm(einstein_product(proj_left, parts.x1) - parts.x1) <= 1e-10
        assert fro_norm(einstein_product(a_pinv, parts.y1)) <= 1e-10
        assert fro_norm(einstein_product(proj_left, parts.y1)) <= 1e-10
        assert fro_norm(einstein_product(proj_right, parts.x2) - parts.x2) <= 1e-10
        assert fro_norm(einstein_product(proj_right, parts.y2)) <= 1e-10

    def test_projector_idempotent_and_hermitian(self, rng):
        a = rand_tensor(rng, (2, 2), (2, 2))
        proj = einstein_product(a, pinv(a))
        assert fro_norm(einstein_product(proj, proj) - proj) <= 1e-10
        assert fro_norm(proj.H - proj) <= 1e-10


class TestCheckConditions:
    def test_example2_applicable(self, example_a, example_b, ex2_update):
        parts = decompose_update(example_a, pinv(example_a), ex2_update)
        report = check_conditions(parts, example_b, pinv(example_b), tol=1e-12)
        assert report.applicable
        assert set(report.residuals) == {"3.1", "3.2", "3.3", "4.1", "4.2", "4.3"}
        assert all(r <= 1e-12 for r in report.residuals.values())

    def test_degenerate_split_fails_left_family(self, example_a, rng):
        # y1 = 0 with a nonzero x1 b: condition 3.2 compares 0 against x1 b.
        b = scalar1111(1.0)
        proj = einstein_product(example_a, pinv(example_a))
        x1 = einstein_product(proj, rand_tensor(rng, (2, 2), (1, 1), real=True))
        x1 = scale(x1, 2.0 / fro_norm(x1))
        shape_u = PairedShape((2, 2), (1, 1))
        parts_kwargs = dict(
            x1=x1,
            y1=zeros(shape_u),
            x2=zeros(shape_u),
            y2=zeros(shape_u),
            e1=zeros(shape_u),
            e2=zeros(shape_u),
        )
        from einalg import SplitParts

        report = check_conditions(SplitParts(**parts_kwargs), b, pinv(b))
        assert not report.applicable
        assert report.residuals["3.2"] == pytest.approx(1.0)

    def test_invertible_construction_applicable(self, rng):
        # invertible middle factor and gram tensors make every condition hold
        for _ in range(10):
            a = rand_tensor(rng, (2, 2), (2, 2))
            mat = a.matrix.copy()
            mat[:, 3] = 0.0
            mat[3, :] = 0.0
            a = fold(mat, a.shape)  # guarantee null directions on both sides
            a_pinv = pinv(a)
            proj_left = einstein_product(a, a_pinv)
            proj_right = einstein_product(a_pinv, a)
            y1 = null_space_part(rng, proj_left, (2, 2), (1,))
            y2 = null_space_part(rng, proj_right, (2, 2), (1,))
            x1 = einstein_product(proj_left, rand_tensor(rng, (2, 2), (1,)))
            x2 = einstein_product(proj_right, rand_tensor(rng, (2, 2), (1,)))
            b = rand_invertible(rng, (1,), boost=1.5)
            u = x1 + y1
            v = (x2 + y2).H
            upd = LowRankUpdate(u=u, b=b, v=v, order=1)
            parts = decompose_update(a, a_pinv, upd)
            report = check_conditions(parts, b, pinv(b), tol=1e-10)
            assert report.applicable


class TestSmwPinv:
    def test_example1_via_general_identity(self, example_a, example_b, ex1, ex1_update):
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex1_update)
        got = smw_pinv(a_pinv, parts, pinv(example_b))
        assert np.allclose(got.matrix, ex1["s_pinv"].matrix, atol=1e-10)

    def test_example2_via_general_identity(self, example_a, example_b, ex2, ex2_update):
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex2_update)
        got = smw_pinv(a_pinv, parts, pinv(example_b))
        assert np.allclose(got.matrix, ex2["s_pinv"].matrix, atol=1e-10)

    def test_zero_parts_return_base_pinv(self, example_a, example_b):
        from einalg import SplitParts

        a_pinv = pinv(example_a)
        shape_u = PairedShape((2, 2), (1, 1))
        parts = SplitParts(
            x1=zeros(shape_u),
            y1=zeros(shape_u),
            x2=zeros(shape_u),
            y2=zeros(shape_u),
            e1=zeros(shape_u),
            e2=zeros(shape_u),
        )
        got = smw_pinv(a_pinv, parts, pinv(example_b))
        assert got == a_pinv

    def test_proof_step_identities_example2(self, example_a, ex2, ex2_update):
        # s s+ == a a+ + y1 e1^H and s+ s == a+ a + e2 y2^H
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex2_update)
        s = apply_update(example_a, ex2_update)
        s_pinv = ex2["s_pinv"]
        left = einstein_product(s, s_pinv)
        right = einstein_product(example_a, a_pinv) + einstein_product(parts.y1, parts.e1.H)
        assert fro_norm(left - right) <= 1e-10
        left = einstein_product(s_pinv, s)
        right = einstein_product(a_pinv, example_a) + einstein_product(parts.e2, parts.y2.H)
        assert fro_norm(left - right) <= 1e-10

    def test_random_oracle_equivalence(self, rng):
        # whenever the conditions pass, the identity must match the direct pinv
        checked = 0
        for _ in range(20):
            a = rand_tensor(rng, (2, 2), (2, 2))
            mat = a.matrix.copy()
            mat[:, 3] = 0.0
            mat[3, :] = 0.0
            a = fold(mat, a.shape)
            a_pinv = pinv(a)
            proj_left = einstein_product(a, a_pinv)
            proj_right = einstein_product(a_pinv, a)
            u = null_space_part(rng, proj_left, (2, 2), (1,)) + einstein_product(
                proj_left, rand_tensor(rng, (2, 2), (1,))
            )
            vh = null_space_part(rng, proj_right, (2, 2), (1,)) + einstein_product(
                proj_right, rand_tensor(rng, (2, 2), (1,))
            )
            b = rand_invertible(rng, (1,), boost=1.5)
            upd = LowRankUpdate(u=u, b=b, v=vh.H, order=1)
            parts = decompose_update(a, a_pinv, upd)
            report = check_conditions(parts, b, pinv(b), tol=1e-10)
            if not report.applicable:
                continue
            checked += 1
            got = smw_pinv(a_pinv, parts, pinv(b))
            want = pinv(apply_update(a, upd))
            assert fro_norm(got - want) <= 1e-8 * fro_norm(want)
        assert checked >= 15


class TestSmwPinvOrthogonal:
    def test_example1_fast_path(self, example_a, example_b, ex1, ex1_update):
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex1_update)
        got = smw_pinv_orthogonal(a_pinv, parts.e1, parts.e2, pinv(example_b))
        assert np.allclose(got.matrix, ex1["s_pinv"].matrix, atol=1e-10)

    def test_zero_scaled_parts_return_base(self, example_a, example_b):
        a_pinv = pinv(example_a)
        shape_u = PairedShape((2, 2), (1, 1))
        got = smw_pinv_orthogonal(a_pinv, zeros(shape_u), zeros(shape_u), pinv(example_b))
        assert got == a_pinv

    def test_agrees_with_general_identity(self, rng):
        for _ in range(10):
            a = rand_tensor(rng, (2, 2), (2, 2))
            mat = a.matrix.copy()
            mat[:, 3] = 0.0
            mat[3, :] = 0.0
            a = fold(mat, a.shape)
            a_pinv = pinv(a)
            proj_left = einstein_product(a, a_pinv)
            proj_right = einstein_product(a_pinv, a)
            y1 = null_space_part(rng, proj_left, (2, 2), (1,))
            y2 = null_space_part(rng, proj_right, (2, 2), (1,))
            b = rand_invertible(rng, (1,), boost=1.5)
            upd = LowRankUpdate(u=y1, b=b, v=y2.H, order=1)
            parts = decompose_update(a, a_pinv, upd)
            b_pinv = pinv(b)
            fast = smw_pinv_orthogonal(a_pinv, parts.e1, parts.e2, b_pinv)
            general = smw_pinv(a_pinv, parts, b_pinv)
            assert fro_norm(fast - general) <= 1e-11


class TestSmwPinvHermitian:
    def _hermitian_case(self, rng):
        g = rand_tensor(rng, (2, 2), (2, 2))
        mat = g.matrix.copy()
        mat[:, 3] = 0.0
        mat[3, :] = 0.0
        mat = mat + mat.conj().T  # hermitian, singular (e4 in both null spaces)
        a = fold(mat, g.shape)
        a_pinv = pinv(a)
        proj = einstein_product(a, a_pinv)
        y = null_space_part(rng, proj, (2, 2), (1,))
        x = einstein_product(proj, rand_tensor(rng, (2, 2), (1,)))
        u = x + y
        b = rand_invertible(rng, (1,), boost=1.5)
        return a, a_pinv, x, y, u, b

    def test_reduces_to_general_identity(self, rng):
        for _ in range(10):
            a, a_pinv, x, y, u, b = self._hermitian_case(rng)
            upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
            parts = decompose_update(a, a_pinv, upd)
            b_pinv = pinv(b)
            got = smw_pinv_hermitian(a_pinv, parts.x1, parts.y1, parts.e1, b_pinv)
            general = smw_pinv(a_pinv, parts, b_pinv)
            assert fro_norm(got - general) <= 1e-10

    def test_matches_direct_pinv(self, rng):
        a, a_pinv, x, y, u, b = self._hermitian_case(rng)
        upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
        parts = decompose_update(a, a_pinv, upd)
        got = smw_pinv_hermitian(a_pinv, parts.x1, parts.y1, parts.e1, pinv(b))
        want = pinv(apply_update(a, upd))
        assert fro_norm(got - want) <= 1e-8 * max(1.0, fro_norm(want))

    def test_invertible_base_is_not_applicable(self, rng):
        # an invertible base leaves no null space: the split has y = e = 0 and
        # the left condition family degenerates to x b = 0, which fails for a
        # nonzero update, so the identity must not be applied
        a = identity([2, 2])
        a_pinv = pinv(a)
        u = rand_tensor(rng, (2, 2), (1,))
        b = rand_invertible(rng, (1,), boost=1.5)
        upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
        parts = decompose_update(a, a_pinv, upd)
        assert fro_norm(parts.y1) <= 1e-12
        report = check_conditions(parts, b, pinv(b))
        assert not report.applicable

    def test_zero_update(self, example_b):
        a = identity([2, 2])
        a_pinv = pinv(a)
        shape_u = PairedShape((2, 2), (1, 1))
        got = smw_pinv_hermitian(
            a_pinv, zeros(shape_u), zeros(shape_u), zeros(shape_u), pinv(example_b)
        )
        assert got == a_pinv

    def test_mismatched_split_rejected(self, example_b, rng):
        a = identity([2, 2])
        with pytest.raises(ShapeError):
            smw_pinv_hermitian(
                pinv(a),
                rand_tensor(rng, (2, 2), (1,)),
                rand_tensor(rng, (2, 2), (2,)),
                rand_tensor(rng, (2, 2), (1,)),
                pinv(example_b),
            )


class TestUpdatePinv:
    def test_example1_end_to_end(self, example_a, ex1, ex1_update):
        result = update_pinv(example_a, pinv(example_a), ex1_update)
        assert result.report.applicable
        assert result.path == "identity"
        assert np.allclose(result.s_pinv.matrix, ex1["s_pinv"].matrix, atol=1e-10)

    def test_example2_end_to_end(self, example_a, ex2, ex2_update):
        result = update_pinv(example_a, pinv(example_a), ex2_update)
        assert result.report.applicable
        assert np.allclose(result.s_pinv.matrix, ex2["s_pinv"].matrix, atol=1e-10)

    def test_fallback_still_valid(self, example_a, rng):
        # an update whose left factor lies wholly inside the column space has
        # y1 = e1 = 0 while x1 b != 0, which breaks the left condition family;
        # the direct path must kick in and still return a true pseudoinverse
        a_pinv = pinv(example_a)
        proj = einstein_product(example_a, a_pinv)
        u = einstein_product(proj, rand_tensor(rng, (2, 2), (1, 1)))
        v = rand_tensor(rng, (1, 1), (2, 2))
        upd = LowRankUpdate(u=u, b=scalar1111(1.0), v=v, order=2)
        result = update_pinv(example_a, a_pinv, upd)
        assert not result.report.applicable
        assert result.path == "fallback"
        assert result.report.residuals["3.2"] > result.report.tol
        s = apply_update(example_a, upd)
        assert verify_penrose(s, result.s_pinv, tol=1e-8).passed


def four_term_pinv(a_pinv, parts, b_pinv):
    """``a+ - e2 x2^H a+ - a+ x1 e1^H + e2 (b+ + x2^H a+ x1) e1^H`` on the flattened matrices."""
    ap, bp = a_pinv.matrix, b_pinv.matrix
    x1, e1h = parts.x1.matrix, parts.e1.matrix.conj().T
    x2h, e2 = parts.x2.matrix.conj().T, parts.e2.matrix
    return ap - e2 @ x2h @ ap - ap @ x1 @ e1h + e2 @ (bp + x2h @ ap @ x1) @ e1h


@st.composite
def update_case(draw, hermitian):
    """Rank-deficient (2,3 | 3,2) base (or Hermitian (2,3 | 2,3)) and a K-mode update."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (2, 3)
    cols = rows if hermitian else (3, 2)
    k = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    a = low_rank_tensor(rng, rows, cols, draw(st.integers(1, 5)), hermitian=hermitian)
    u = rand_tensor(rng, rows, k)
    v = u.H if hermitian else rand_tensor(rng, k, cols)
    return a, LowRankUpdate(u=u, b=rand_tensor(rng, k, k), v=v, order=len(k))


def assert_close(got, want, rel):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestRankTwoKAssembly:
    @settings(max_examples=60, deadline=None)
    @given(update_case(hermitian=False))
    def test_matches_four_term_formula(self, case):
        a, upd = case
        a_pinv = pinv(a)
        parts = decompose_update(a, a_pinv, upd)
        b_pinv = pinv(upd.b)
        got = smw_pinv(a_pinv, parts, b_pinv)
        assert got.shape == a_pinv.shape
        assert_close(got.matrix, four_term_pinv(a_pinv, parts, b_pinv), 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(update_case(hermitian=True))
    def test_hermitian_matches_general(self, case):
        a, upd = case
        a_pinv = pinv(a)
        parts = decompose_update(a, a_pinv, upd)
        b_pinv = pinv(upd.b)
        got = smw_pinv_hermitian(a_pinv, parts.x1, parts.y1, parts.e1, b_pinv)
        assert_close(got.matrix, smw_pinv(a_pinv, parts, b_pinv).matrix, 1e-10)

    def test_mismatched_scaled_part_rejected(self, example_a, example_b, ex2_update):
        # e2 with the right flattened size but the wrong row modes
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex2_update)
        bad = SplitParts(
            parts.x1, parts.y1, parts.x2, parts.y2, parts.e1,
            zeros(PairedShape((4,), (1, 1))),
        )
        with pytest.raises(ShapeError):
            smw_pinv(a_pinv, bad, pinv(example_b))


@st.composite
def conditioned_update(draw):
    """Rank-deficient (4,4 | 4,4) base with ``cond`` in 1e2..1e8 and a Gaussian
    K-mode update, which has parts in the null spaces as well as in the
    column spaces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = 10.0 ** draw(st.floats(2.0, 8.0))
    k = draw(st.integers(1, 2))
    dims = (4, 4)
    a = conditioned_tensor(rng, dims, 16 - draw(st.integers(k, 4)), cond)
    upd = LowRankUpdate(
        u=rand_tensor(rng, dims, (k,)),
        b=rand_tensor(rng, (k,), (k,)),
        v=rand_tensor(rng, (k,), dims),
        order=1,
    )
    return a, upd, cond


class TestIllConditionedBase:
    """The split's zero test scales with the rounding bound of ``a (a^+ u)``."""

    @pytest.mark.parametrize("base, rel", ILL_CONDITIONED_BASES)
    def test_ill_conditioned_base_falls_back(self, rng, base, rel):
        # on an invertible base y1 and y2 are the residue of the projection
        # (about cond * 2**-52 * |u|); taken as structure, e1 = y1 (y1^H y1)^+
        # is huge, the conditions hold on it and the identity result is off by
        # many orders of magnitude.  With a kept singular value near the
        # kernel's cutoff the split floor exceeds |u|; zeroing both parts of a
        # split makes every condition hold on zeros and returns a^+ unchanged.
        dims = (4, 4)
        a = base(rng)
        a_pinv = pinv(a)
        for _ in range(5):
            upd = LowRankUpdate(
                u=rand_tensor(rng, dims, (1,)),
                b=rand_tensor(rng, (1,), (1,)),
                v=rand_tensor(rng, (1,), dims),
                order=1,
            )
            result = update_pinv(a, a_pinv, upd)
            parts = result.parts
            assert parts.x1.matrix.any() and parts.x2.matrix.any()
            assert not (parts.y1.matrix.any() or parts.y2.matrix.any())
            assert result.path == "fallback"
            want = np.linalg.pinv(apply_update(a, upd).matrix)
            assert_close(result.s_pinv.matrix, want, rel)

    @settings(max_examples=60, deadline=None)
    @given(conditioned_update())
    def test_identity_matches_lapack(self, case):
        a, upd, cond = case
        result = update_pinv(a, pinv(a), upd)
        assert result.path == "identity"
        want = np.linalg.pinv(apply_update(a, upd).matrix)
        assert_close(result.s_pinv.matrix, want, 1e-10 * cond)


class TestIdentityPathCost:
    def test_no_cubic_product(self, rng, monkeypatch):
        # every product on the identity path must have K on at least one side:
        # record (batch, rows, inner, cols) of each product update_pinv makes
        n, k, dims = 64, 2, (4, 4, 4)
        a = low_rank_tensor(rng, dims, dims, n - k)
        a_pinv = pinv(a)
        upd = LowRankUpdate(
            u=rand_tensor(rng, dims, (k,)),
            b=rand_tensor(rng, (k,), (k,)),
            v=rand_tensor(rng, (k,), dims),
            order=1,
        )
        sizes, built = record_work(monkeypatch)
        result = update_pinv(a, a_pinv, upd)
        monkeypatch.undo()
        assert result.report.applicable
        # 8 in the split (four projections, two Grams, two scaled parts),
        # 15 in the six conditions, 2 for the factors l and r, which reuse
        # the split's a^+ u and v a^+ as a^+ x1 and x2^H a^+, and 1 for
        # a^+ + l r; the K x K pseudoinverses are cut and assembled in the
        # matrix kernel's one pass over the stack, not here
        assert len(sizes) == 26
        assert not [s for s in sizes if s[1:] == (n, n, n)]
        assert [s for s in sizes if s[1] == s[3] == n] == [(1, n, 2 * k, n)]
        # the four projections a^+ u, v a^+, a (a^+ u) and (v a^+) a are the
        # only other products with an N x N operand, and with K <= 3 each is
        # K matrix-vector products in one call
        col, row = (k, n, n, 1), (k, 1, n, n)
        assert [s for s in sizes if s[2] == n and n in (s[1], s[3])] == [col, row, col, row]
        # only what update_pinv returns: the six split parts and s^+ (b^+
        # stays a matrix)
        assert len(built) == 7
        want = pinv(apply_update(a, upd))
        assert fro_norm(result.s_pinv - want) <= 1e-8 * fro_norm(want)

    def test_one_svd_for_the_k_square_pseudoinverses(self, rng, monkeypatch):
        # b^+ and the two Gram pseudoinverses come from one LAPACK call on a
        # (3, K, K) stack; nothing N-sized is decomposed
        n, dims = 64, (4, 4, 4)
        a = low_rank_tensor(rng, dims, dims, n - 4)
        a_pinv = pinv(a)
        shapes, lapack_svd = [], np.linalg.svd

        def recorded_svd(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return lapack_svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        for k in ((1,), (2,), (3,), (2, 2)):
            upd = LowRankUpdate(
                u=rand_tensor(rng, dims, k),
                b=rand_tensor(rng, k, k),
                v=rand_tensor(rng, k, dims),
                order=len(k),
            )
            shapes.clear()
            assert update_pinv(a, a_pinv, upd).path == "identity"
            size = int(np.prod(k))
            assert shapes == [(3, size, size)]
        # u and v^H inside a's column spaces: the split leaves no null-space
        # part, so there is no K x K stack; the fallback's direct pseudoinverse
        # is update_pinv's only decomposition, and measure_error adds pinv(a)
        d, delta = rand_tensor(rng, dims, (1,)), scale(rand_tensor(rng, dims, (1,)), 1e-2)
        for k in ((1,), (2,), (2, 2)):
            upd = LowRankUpdate(
                u=einstein_product(a, rand_tensor(rng, dims, k)),
                b=rand_tensor(rng, k, k),
                v=einstein_product(rand_tensor(rng, k, dims), a),
                order=len(k),
            )
            shapes.clear()
            assert update_pinv(a, a_pinv, upd).path == "fallback"
            assert shapes == [(n, n)]
            shapes.clear()
            measure_error(a, d, upd, delta)
            assert shapes == [(n, n), (n, n)]

    def test_result_is_not_copied(self, rng):
        # the N x N result is the one array the call allocates at that size:
        # wrapping it in the returned tensor must not copy it (a whole N^2 x 16
        # bytes more), and checking it finite must not allocate an N^2-byte
        # mask (1/16 of it); the rest of the peak is a few dozen N x K parts
        n, k, dims = 256, 1, (4, 4, 4, 4)
        a = low_rank_tensor(rng, dims, dims, n - k)
        a_pinv = pinv(a)
        upd = LowRankUpdate(
            u=rand_tensor(rng, dims, (k,)),
            b=rand_tensor(rng, (k,), (k,)),
            v=rand_tensor(rng, (k,), dims),
            order=1,
        )
        update_pinv(a, a_pinv, upd)
        tracemalloc.start()
        try:
            result = update_pinv(a, a_pinv, upd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.path == "identity"
        assert peak <= 1.09 * n * n * 16


@st.composite
def thin_product(draw):
    """Complex N x N matrix at a drawn scale, N x K columns and K x N rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 64)), draw(st.integers(1, 6))
    m = rand_tensor(rng, (n,), (n,)).matrix * 2.0 ** draw(st.integers(-40, 40))
    return m, rand_tensor(rng, (n,), (k,)).matrix, rand_tensor(rng, (k,), (n,)).matrix


@st.composite
def rank_deficient_update(draw):
    """Rank-deficient base at N = 16 or 64 and a Gaussian update with K = 1..5;
    the rank leaves the update room in the null spaces or not, so both paths run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from([(4, 4), (4, 4, 4)]))
    n, k = int(np.prod(dims)), draw(st.integers(1, 5))
    a = low_rank_tensor(rng, dims, dims, n - draw(st.integers(1, k + 2)))
    upd = LowRankUpdate(
        u=rand_tensor(rng, dims, (k,)),
        b=rand_tensor(rng, (k,), (k,)),
        v=rand_tensor(rng, (k,), dims),
        order=1,
    )
    return a, upd


class TestThinProducts:
    """Products of an N x N matrix with 2 or 3 vectors run as matrix-vector
    products; any other width is the plain ``np.matmul``."""

    @settings(max_examples=100, deadline=None)
    @given(thin_product())
    def test_matches_matmul(self, case):
        m, cols, rows = case
        pairs = [(woodbury._mat_cols(m, cols), m, cols), (woodbury._rows_mat(rows, m), rows, m)]
        for got, left, right in pairs:
            want = np.matmul(left, right)
            if not 1 < cols.shape[1] <= woodbury._MATVEC_MAX:
                assert np.array_equal(got, want)
            else:
                # both sum the same terms, in orders whose rounding differs by
                # a few ulps of the sum of their magnitudes
                scale = np.matmul(np.abs(left), np.abs(right))
                assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)

    @settings(max_examples=40, deadline=None)
    @given(rank_deficient_update())
    def test_same_verdict_as_gemm(self, case):
        a, upd = case
        a_pinv = pinv(a)
        got = update_pinv(a, a_pinv, upd)
        with mock.patch.object(woodbury, "_MATVEC_MAX", 0):
            want = update_pinv(a, a_pinv, upd)
        assert got.path == want.path
        assert got.report.applicable == want.report.applicable
        # the rounding of the split's products reaches s^+ through the
        # conditioning of a^+ and the Grams: 2000 seeded draws of this kind
        # stayed within 2.6e-12
        assert_close(got.s_pinv.matrix, want.s_pinv.matrix, 1e-10)


@st.composite
def identity_case(draw):
    """Rank-deficient (2,3 | 3,2) base with room for a K-mode update in its null
    spaces; half the draws project the update wholly out of its column spaces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = (2, 3), (3, 2)
    k = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    size = int(np.prod(k))
    a = low_rank_tensor(rng, rows, cols, draw(st.integers(1, 6 - size)))
    u = rand_tensor(rng, rows, k)
    v = rand_tensor(rng, k, cols)
    if draw(st.booleans()):
        a_pinv = pinv(a)
        u = u - einstein_product(a, einstein_product(a_pinv, u))
        v = v - einstein_product(einstein_product(v, a_pinv), a)
    return a, LowRankUpdate(u=u, b=rand_tensor(rng, k, k), v=v, order=len(k))


class TestIdentityReuse:
    """The identity path reuses the split's ``a^+ u`` and ``v a^+`` in place of
    the ``a^+ x1`` and ``x2^H a^+`` that :func:`smw_pinv` computes."""

    @settings(max_examples=80, deadline=None)
    @given(identity_case())
    def test_matches_smw_pinv(self, case):
        a, upd = case
        a_pinv = pinv(a)
        result = update_pinv(a, a_pinv, upd)
        assert result.path == "identity"
        want = smw_pinv(a_pinv, decompose_update(a, a_pinv, upd), pinv(upd.b)).matrix
        parts = result.parts
        if parts.x1.matrix.any() or parts.x2.matrix.any():
            assert_close(result.s_pinv.matrix, want, 1e-12)
        else:
            assert np.array_equal(result.s_pinv.matrix, want)

    def test_returned_tensors_are_read_only(self, example_a, ex2_update, rng):
        # results are kept without a copy, and are as immutable as copied ones
        a_pinv = pinv(example_a)
        upd_zero_v = LowRankUpdate(ex2_update.u, ex2_update.b, zeros(ex2_update.v.shape), 2)
        runs = [update_pinv(example_a, a_pinv, upd) for upd in (ex2_update, upd_zero_v)]
        assert [run.path for run in runs] == ["identity", "fallback"]
        parts = decompose_update(example_a, a_pinv, ex2_update)
        returned = [
            a_pinv,
            inverse(rand_invertible(rng, (2, 2))),
            smw_pinv(a_pinv, parts, pinv(ex2_update.b)),
            *vars(parts).values(),
        ]
        for run in runs:
            returned += [run.s_pinv, *vars(run.parts).values()]
        for t in returned:
            assert not t.matrix.flags.writeable
            with pytest.raises(ValueError):
                t.matrix[0, 0] = 1.0


class TestOverflow:
    """Overflow from finite inputs is a numerical failure, named by its stage."""

    def test_gram_overflow_in_update(self, overflow_update):
        t = overflow_update
        upd = LowRankUpdate(u=t["u"], b=t["b"], v=t["v"], order=1)
        with pytest.raises(NumericalError, match="decompose_update.*Gram tensor y1"):
            update_pinv(t["a"], pinv(t["a"]), upd)

    def test_condition_products_overflow(self):
        big = fold(np.full((4, 1), 1e200), PairedShape((4,), (1,)))
        zero = zeros(big.shape)
        b = fold([[1.0]], PairedShape((1,), (1,)))
        parts = SplitParts(x1=zero, y1=big, x2=zero, y2=zero, e1=big, e2=zero)
        with pytest.raises(NumericalError, match="check_conditions"):
            check_conditions(parts, b, b)

    def test_capacitance_overflow(self):
        a = identity([2])
        u = fold(np.full((2, 1), 1e200), PairedShape((2,), (1,)))
        b = fold([[1.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
        with pytest.raises(NumericalError, match="smw_invertible"):
            smw_invertible(inverse(a), upd, inverse(b))

    def test_assembly_overflow(self):
        a_pinv = fold(1e308 * np.eye(2), PairedShape((2,), (2,)))
        e = fold(1e154 * np.eye(2)[:, :1], PairedShape((2,), (1,)))
        b_pinv = fold([[1.0]], PairedShape((1,), (1,)))
        with pytest.raises(NumericalError, match="smw_pinv_orthogonal"):
            smw_pinv_orthogonal(a_pinv, e, e, b_pinv)


class TestMiddleFactorOverflow:
    def test_pseudoinverse_of_b_overflows(self, example_a, ex2_update):
        # b^+ of a subnormal b is beyond the float range: a numerical failure,
        # raised without a floating-point warning (an error in this suite)
        upd = LowRankUpdate(ex2_update.u, scalar1111(5e-324), ex2_update.v, ex2_update.order)
        with pytest.raises(NumericalError, match="update_pinv overflowed: the pseudoinverse of b"):
            update_pinv(example_a, pinv(example_a), upd)

    def test_column_space_update_does_not_take_it(self, example_a, ex2):
        # regression: u = x1 and v^H = x2 lie inside a's column spaces, so the
        # split leaves no null-space part and b^+ would meet only e1^H = e2 = 0;
        # its overflow was raised all the same, although s^+ = a^+ to working
        # precision
        upd = LowRankUpdate(ex2["x1"], scalar1111(5e-324), ex2["x2h"], 2)
        a_pinv = pinv(example_a)
        result = update_pinv(example_a, a_pinv, upd)
        assert not (result.parts.y1.matrix.any() or result.parts.y2.matrix.any())
        assert result.path == "identity"
        assert result.s_pinv.matrix.tobytes() == a_pinv.matrix.tobytes()
