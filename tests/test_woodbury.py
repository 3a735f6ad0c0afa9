"""Low-rank update identities: worked examples, random oracles, fallbacks."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from einalg import (
    LowRankUpdate,
    NumericalError,
    PairedShape,
    EinsteinTensor,
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
from einalg.matkernel import _inverse, _rank_floor
from einalg.tensor import _frobenius, _relative

from conftest import (
    CAPACITANCE_OVERFLOWS,
    COND1E6_REL,
    ILL_CONDITIONED_BASES,
    cond1e6_base,
    conditioned_tensor,
    rand_matrix,
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

    @pytest.mark.parametrize("factor", ["u", "b", "v"])
    @pytest.mark.parametrize("value", ["u", None, np.eye(2)], ids=["str", "None", "ndarray"])
    def test_factor_not_a_tensor_rejected(self, factor, value):
        # regression: reading u.col_dims leaked AttributeError
        t = identity([2])
        factors = {"u": t, "b": t, "v": t, factor: value}
        with pytest.raises(ShapeError, match=f"^update factor {factor} must be an EinsteinTensor, got "):
            LowRankUpdate(**factors, order=1)


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
        with pytest.raises(ShapeError, match="^smw_invertible: the column modes of a_inv must be "):
            smw_invertible(rand_tensor(rng, (3,), (2,)), upd)

    def test_smw_invertible_update_not_conforming(self, rng):
        upd = rank_one_update(rng, (2,), (2,))
        with pytest.raises(ShapeError, match="^smw_invertible: the shape of u b v must be "):
            smw_invertible(rand_invertible(rng, (3,)), upd)

    def test_decompose_update_pinv_not_transposed(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        with pytest.raises(ShapeError, match="^decompose_update: the shape of a_pinv must be "):
            decompose_update(a, a, rank_one_update(rng, (2,), (3,)))

    def test_smw_pinv_base_pinv_not_conforming(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        upd = rank_one_update(rng, (2,), (3,))
        parts = decompose_update(a, pinv(a), upd)
        with pytest.raises(ShapeError, match="^smw_pinv: the shape of a_pinv must be "):
            smw_pinv(pinv(rand_tensor(rng, (2,), (2,))), parts, pinv(upd.b))

    def test_check_conditions_middle_factor_modes(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        upd = rank_one_update(rng, (2,), (3,))
        parts = decompose_update(a, pinv(a), upd)
        b = identity([2])
        with pytest.raises(ShapeError, match="^check_conditions: the shape of b must be "):
            check_conditions(parts, b)

    def test_check_conditions_checks_modes_before_pinv(self, rng):
        # regression: b^+ was taken first, and overflowed on this subnormal b
        a = rand_tensor(rng, (2,), (3,))
        parts = decompose_update(a, pinv(a), rank_one_update(rng, (2,), (3,)))
        b = EinsteinTensor(PairedShape((1,), (2,)), [[1e-310, 0.0]])
        with pytest.raises(ShapeError, match="^check_conditions: the shape of b must be "):
            check_conditions(parts, b)

    @pytest.mark.parametrize("parts", ["p", None, ()], ids=["str", "None", "tuple"])
    def test_check_conditions_parts_not_a_split(self, parts):
        # regression: reading parts.x1 leaked AttributeError
        with pytest.raises(ShapeError, match="^check_conditions: parts must be a SplitParts, got "):
            check_conditions(parts, identity([2]))

    @pytest.mark.parametrize("parts", ["p", None, ()], ids=["str", "None", "tuple"])
    def test_smw_pinv_parts_not_a_split(self, parts):
        t = identity([2])
        with pytest.raises(ShapeError, match="^smw_pinv: parts must be a SplitParts, got "):
            smw_pinv(t, parts, t)


class TestSmwInvertible:
    def test_zero_update_returns_base_inverse(self, rng):
        a = rand_invertible(rng, (2, 2))
        a_inv = inverse(a)
        u = zeros(PairedShape((2, 2), (1,)))
        v = zeros(PairedShape((1,), (2, 2)))
        b = fold([[2.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=v, order=1)
        got = smw_invertible(a_inv, upd)
        assert np.allclose(got.matrix, a_inv.matrix, atol=1e-14)

    def test_matches_direct_inverse(self, rng):
        for _ in range(20):
            a = rand_invertible(rng, (2, 2))
            b = rand_invertible(rng, (2,), boost=2.0)
            u = rand_tensor(rng, (2, 2), (2,))
            v = rand_tensor(rng, (2,), (2, 2))
            upd = LowRankUpdate(u=u, b=b, v=v, order=1)
            got = smw_invertible(inverse(a), upd)
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
        got = smw_invertible(inverse(a), upd)
        want = np.eye(4) - (e @ e.T) / (1.0 + np.vdot(e, e).real)
        assert np.allclose(got.matrix, want, atol=1e-12)

    def test_singular_capacitance_raises(self):
        # C = I + b (v a^-1 u) == 0 when the correction exactly cancels: use
        # a = i, b = 1 (scalar), u = e, v = -e^T so capacitance = 1 - 1 = 0,
        # and a + u b v = diag(0, 1) is singular.
        a = identity([2])
        e = np.zeros((2, 1))
        e[0, 0] = 1.0
        u = fold(e, PairedShape((2,), (1,)))
        v = fold(-e.T, PairedShape((1,), (2,)))
        b = fold([[1.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=v, order=1)
        with pytest.raises(SingularCapacitanceError) as exc:
            smw_invertible(inverse(a), upd)
        assert exc.value.rank == 0
        assert type(exc.value) is SingularCapacitanceError
        assert str(exc.value) == "capacitance tensor is singular: numerical rank 0 of 1"
        assert exc.value.sigma_min == 0.0


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
        report = check_conditions(parts, example_b)
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

        report = check_conditions(SplitParts(**parts_kwargs), b)
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
            report = check_conditions(parts, b)
            assert report.applicable
            assert max(report.residuals.values()) <= 1e-10


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
            if max(check_conditions(parts, b).residuals.values()) > 1e-10:
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
            got = smw_pinv_hermitian(a_pinv, parts.x1, parts.e1, b_pinv)
            general = smw_pinv(a_pinv, parts, b_pinv)
            assert fro_norm(got - general) <= 1e-10

    def test_matches_direct_pinv(self, rng):
        a, a_pinv, x, y, u, b = self._hermitian_case(rng)
        upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
        parts = decompose_update(a, a_pinv, upd)
        got = smw_pinv_hermitian(a_pinv, parts.x1, parts.e1, pinv(b))
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
        report = check_conditions(parts, b)
        assert not report.applicable

    def test_zero_update(self, example_b):
        a = identity([2, 2])
        a_pinv = pinv(a)
        shape_u = PairedShape((2, 2), (1, 1))
        got = smw_pinv_hermitian(
            a_pinv, zeros(shape_u), zeros(shape_u), pinv(example_b)
        )
        assert got == a_pinv

    def test_mismatched_split_rejected(self, example_b, rng):
        # e carries two shared modes where x carries one
        a = identity([2, 2])
        with pytest.raises(ShapeError, match="^SplitParts: the shape of e1 must be "):
            smw_pinv_hermitian(
                pinv(a),
                rand_tensor(rng, (2, 2), (1,)),
                rand_tensor(rng, (2, 2), (2,)),
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
        got = smw_pinv_hermitian(a_pinv, parts.x1, parts.e1, b_pinv)
        assert_close(got.matrix, smw_pinv(a_pinv, parts, b_pinv).matrix, 1e-10)

    def test_split_checks_its_shapes(self, example_a, ex2_update):
        parts = decompose_update(example_a, pinv(example_a), ex2_update)
        message = "SplitParts: the shape of e2 must be (2x2 | 1x1), got (4 | 1x1)"
        with pytest.raises(ShapeError, match=re.escape(message)):
            SplitParts(
                parts.x1, parts.y1, parts.x2, parts.y2, parts.e1,
                zeros(PairedShape((4,), (1, 1))),
            )

    def test_mismatched_scaled_part_rejected(self, example_a, example_b, ex2_update):
        # e2 with the right flattened size but the wrong row modes
        a_pinv = pinv(example_a)
        parts = decompose_update(example_a, a_pinv, ex2_update)
        with pytest.raises(ShapeError):
            bad = SplitParts(
                parts.x1, parts.y1, parts.x2, parts.y2, parts.e1,
                zeros(PairedShape((4,), (1, 1))),
            )
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
        # The split leaves no null-space part, and its floor, which the
        # capacitance step reports as C, is above the tolerance.
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
            assert result.report.residuals["C"] > result.report.tol
            want = np.linalg.pinv(apply_update(a, upd).matrix)
            assert_close(result.s_pinv.matrix, want, rel)

    def test_cond1e6_base_takes_capacitance(self, rng):
        # the split's floor, 2 * 16 * 2**-52 |a|_F |a^+|_F = 8.4e-9, is below
        # the tolerance at cond 1e6, so the update goes through
        # C = I + b v a^+ u
        dims = (4, 4)
        a = cond1e6_base(rng)
        a_pinv = pinv(a)
        for _ in range(5):
            upd = LowRankUpdate(
                u=rand_tensor(rng, dims, (1,)),
                b=rand_tensor(rng, (1,), (1,)),
                v=rand_tensor(rng, (1,), dims),
                order=1,
            )
            result = update_pinv(a, a_pinv, upd)
            assert not (result.parts.y1.matrix.any() or result.parts.y2.matrix.any())
            assert result.path == "capacitance"
            assert list(result.report.residuals) == ["C"]
            want = np.linalg.pinv(apply_update(a, upd).matrix)
            assert_close(result.s_pinv.matrix, want, COND1E6_REL)

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
        # 14 in the six conditions (6 for their K x K factors, 8 N-sized), 2
        # for the factors l and r, which reuse the split's a^+ u and v a^+
        # as a^+ x1 and x2^H a^+, and 1 for a^+ + l r; the K x K
        # pseudoinverses are cut and assembled in the matrix kernel's one
        # pass over the stack, not here
        assert len(sizes) == 25
        assert not [s for s in sizes if s[1:] == (n, n, n)]
        assert [s for s in sizes if s[1] == s[3] == n] == [(1, n, 2 * k, n)]
        # the four projections a^+ u, v a^+, a (a^+ u) and (v a^+) a are the
        # only other products with an N x N operand, and with K <= 3 each is
        # K matrix-vector products in one call, the rows of v a^+ and
        # (v a^+) a as the columns of their transposes
        col = (k, n, n, 1)
        assert [s for s in sizes if s[2] == n and n in (s[1], s[3])] == [col] * 4
        # only what update_pinv returns, s^+ (b^+ stays a matrix); the six
        # split parts are wrapped on the first read of parts, and only then
        assert built == [a.shape]
        sizes, built = record_work(monkeypatch)
        parts = result.parts
        assert len(built) == 6
        assert result.parts is parts
        monkeypatch.undo()
        assert len(built) == 6 and not sizes
        want = pinv(apply_update(a, upd))
        assert fro_norm(result.s_pinv - want) <= 1e-8 * fro_norm(want)

    def test_one_svd_for_the_k_square_pseudoinverses(self, rng, monkeypatch):
        # b^+ and the two Gram pseudoinverses come from one LAPACK call on a
        # (3, K, K) stack; nothing N-sized is decomposed.  At K = 1 every
        # K x K inverse is 1 / x, and no LAPACK call is made
        n, dims = 64, (4, 4, 4)
        a = low_rank_tensor(rng, dims, dims, n - 4)
        a_pinv = pinv(a)
        shapes, lapack_svd = [], np.linalg.svd

        def recorded_svd(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return lapack_svd(mat, *args, **kwargs)

        def k_square(*shape):
            # the SVD of a K x K step: none at K = 1
            return [shape] if shape[-1] > 1 else []

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
            assert shapes == k_square(3, size, size)
        # u and v^H inside a's column spaces: the split leaves no null-space
        # part, so there is no K x K stack and no direct pseudoinverse; the
        # capacitance C = I + b v a^+ u is update_pinv's only decomposition
        # (none at K = 1), and measure_error adds pinv(a)
        d, delta = rand_tensor(rng, dims, (1,)), scale(rand_tensor(rng, dims, (1,)), 1e-2)
        for k in ((1,), (2,), (2, 2)):
            upd = LowRankUpdate(
                u=einstein_product(a, rand_tensor(rng, dims, k)),
                b=rand_tensor(rng, k, k),
                v=einstein_product(rand_tensor(rng, k, dims), a),
                order=len(k),
            )
            size = int(np.prod(k))
            shapes.clear()
            assert update_pinv(a, a_pinv, upd).path == "capacitance"
            assert shapes == k_square(size, size)
            shapes.clear()
            measure_error(a, d, upd, delta)
            assert shapes == [(n, n), *k_square(size, size)]
        # smw_invertible decomposes only C as well, and takes no b^-1
        a_inv = inverse(conditioned_tensor(rng, dims, n, 10.0))
        for k in ((1,), (2,), (2, 2)):
            upd = LowRankUpdate(
                u=rand_tensor(rng, dims, k),
                b=rand_tensor(rng, k, k),
                v=rand_tensor(rng, k, dims),
                order=len(k),
            )
            size = int(np.prod(k))
            shapes.clear()
            smw_invertible(a_inv, upd)
            assert shapes == k_square(size, size)

    def test_k1_conditions_form_no_product_and_capacitance_is_k_sized(self, rng, monkeypatch):
        # at K = 1 the six conditions are scalar statements on two inner
        # products and the split's kept norms and make no matmul call, so
        # update_pinv's products are the four projections (the rows of v a^+
        # and (v a^+) a as the columns of their transposes), the two Grams
        # y_i^H y_i, the two scaled parts e_i, the two of the factors and
        # a^+ + l r on the identity path; the capacitance step makes the
        # K x K products of every K, each K-sized on at least two sides, so
        # the capacitance path's only N x N products are the projections
        # and a^+ + l r
        n, dims = 64, (4, 4, 4)
        a = low_rank_tensor(rng, dims, dims, n - 3)
        a_pinv = pinv(a)
        col = (1, n, n, 1)
        for k in ((1,), (1, 1)):
            upd = LowRankUpdate(
                u=rand_tensor(rng, dims, k),
                b=rand_tensor(rng, k, k),
                v=rand_tensor(rng, k, dims),
                order=len(k),
            )
            split, _, _, b_pinv, _ = woodbury._decompose("update_pinv", a, a_pinv, upd)
            sizes, _ = record_work(monkeypatch)
            woodbury._residuals(split, split.e1.conj().T, upd.b.matrix, b_pinv)
            result = update_pinv(a, a_pinv, upd)
            monkeypatch.undo()
            assert result.path == "identity"
            grams, scaled = [(1, 1, n, 1)] * 2, [(1, n, 1, 1)] * 2
            factors = [(1, 1, n, 1), (1, 1, 1, n)]
            assert sizes == [*[col] * 4, *grams, *scaled, *factors, (1, n, 2, n)]
            want = pinv(apply_update(a, upd))
            assert fro_norm(result.s_pinv - want) <= 1e-8 * fro_norm(want)
        upd = LowRankUpdate(
            u=einstein_product(a, rand_tensor(rng, dims, (1,))),
            b=rand_tensor(rng, (1,), (1,)),
            v=einstein_product(rand_tensor(rng, (1,), dims), a),
            order=1,
        )
        _, _, v_ap, _, _ = woodbury._decompose("update_pinv", a, a_pinv, upd)
        sizes, _ = record_work(monkeypatch)
        woodbury._capacitance("update_pinv", v_ap, upd.u.matrix, upd.b.matrix)
        capacitance = sizes[:]
        result = update_pinv(a, a_pinv, upd)
        monkeypatch.undo()
        assert result.path == "capacitance"
        # v a^+ u, b (v a^+ u), C^-1 b and (C^-1 b)(v a^+)
        assert capacitance == [(1, 1, n, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, n)]
        assert all(sorted(size[1:]).count(1) >= 2 for size in capacitance)
        assert sizes == [*capacitance, *[col] * 4, *capacitance, (1, n, 1, n)]

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


def general_residuals(split, b, b_pinv):
    """The six residuals as the equalities are written, products taken left
    to right at N x K with no K x K factor folded first: the reference for
    ``_residuals``' table at every K."""
    x1, y1, x2h, y2h, e2, norms = split.x1, split.y1, split.x2h, split.y2h, split.e2, split.norms
    e1h = split.e1.conj().T
    e1h_y1_b = e1h @ y1 @ b
    by2h_e2 = b @ y2h @ e2
    return {
        "3.1": _relative(e2 @ b_pinv @ e1h_y1_b - e2, norms["e2"]),
        "3.2": _relative(x1 @ e1h_y1_b - x1 @ b, _frobenius(x1 @ b)),
        "3.3": _relative(y1 @ (e1h @ y1) - y1, norms["y1"]),
        "4.1": _relative(by2h_e2 @ (b_pinv @ e1h) - e1h, norms["e1"]),
        "4.2": _relative(by2h_e2 @ x2h - b @ x2h, _frobenius(b @ x2h)),
        "4.3": _relative(e2 @ (y2h @ e2) - e2, norms["e2"]),
    }


def general_capacitance(v_ap, u, b):
    """``_capacitance``' ``(r, residual)`` in its K x K form, the reference
    for the K = 1 route."""
    cap = b @ (v_ap @ u)
    scale = math.sqrt(len(b)) + _frobenius(cap)
    cap = cap + np.eye(len(b))
    cap_inv, sigma = _inverse(cap, scale, SingularCapacitanceError, "capacitance tensor")
    return -(cap_inv @ b) @ v_ap, float(_rank_floor(scale, cap.shape, 1.0) / sigma[-1])


#: How a K = 1 draw of ``rank_one_case`` places ``u`` and ``v^H``: generic
#: (both null-space parts kept), inside both column spaces (the capacitance
#: split), inside one of them (one-sided: a zero y_i), or with ``u`` scaled
#: by 2**-540 so that its Gram ``|y1|^2`` underflows and the cut leaves
#: ``e1 = 0`` while ``y1`` stays.
RANK_ONE_KINDS = ("generic", "column-spaces", "u-inside", "v-inside", "cut-gram")


@st.composite
def rank_one_case(draw):
    """A K = 1 update of a rank-deficient or invertible base at N = 2..16,
    of one of ``RANK_ONE_KINDS``, with ``u``, ``b`` and ``v`` each scaled by
    2**-300, 1 or 2**300 and ``b`` sometimes 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 16))
    a = rand_matrix(rng, n, n, rank=draw(st.integers(1, n)))
    kind = draw(st.sampled_from(RANK_ONE_KINDS))
    u, v = rand_matrix(rng, n, 1), rand_matrix(rng, 1, n)
    if kind in ("column-spaces", "u-inside"):
        u = a @ u
    if kind in ("column-spaces", "v-inside"):
        v = v @ a
    if kind == "cut-gram":
        u = u * 2.0**-540
    b = rand_matrix(rng, 1, 1) * draw(st.sampled_from([1.0, 1.0, 1.0, 0.0]))
    factor = st.sampled_from([2.0**-300, 1.0, 2.0**300])
    u, b, v = u * draw(factor), b * draw(factor), v * draw(factor)
    shape = PairedShape((n,), (n,))
    upd = LowRankUpdate(
        fold(u, PairedShape((n,), (1,))),
        fold(b, PairedShape((1,), (1,))),
        fold(v, PairedShape((1,), (n,))),
        1,
    )
    return fold(a, shape), upd


def assert_agrees_with_the_general_form(split, b, b_pinv):
    """``_residuals`` against :func:`general_residuals`: the same verdicts at
    ``CONDITION_TOL``, and the same values to rounding."""
    got = woodbury._residuals(split, split.e1.conj().T, b, b_pinv)
    want = general_residuals(split, b, b_pinv)
    tol = woodbury.CONDITION_TOL
    assert {k: r <= tol for k, r in got.items()} == {k: r <= tol for k, r in want.items()}
    for label, r in want.items():
        # a residual above 1e-10 is a part's norm, nearly exact in both
        # forms; below, both are rounding of at most a few N-term sums
        bound = 8 * 2.0**-52 * r if r > 1e-10 else 4 * len(split.x1) * 2.0**-52
        assert abs(got[label] - r) <= bound, label


class TestRankOneRoute:
    """At K = 1 the conditions' table takes Python numbers for its factors,
    and the capacitance step inverts a 1 x 1 ``C`` as ``1 / C``; both agree
    with the N x K and K x K forms, and the table does at every K."""

    @settings(max_examples=100, deadline=None)
    @given(rank_deficient_update())
    def test_table_agrees_with_the_general_form(self, case):
        # K = 1 to 5 at N = 16 and 64, with K x K factors folded first
        a, upd = case
        split, _, _, b_pinv, _ = woodbury._decompose("update_pinv", a, pinv(a), upd)
        assume(b_pinv is not None)
        assert_agrees_with_the_general_form(split, upd.b.matrix, b_pinv)

    @settings(max_examples=400, deadline=None)
    @given(rank_one_case())
    def test_agrees_with_the_general_form(self, case):
        a, upd = case
        split, _, v_ap, b_pinv, _ = woodbury._decompose("update_pinv", a, pinv(a), upd)
        u, b = upd.u.matrix, upd.b.matrix
        if b_pinv is None:
            # C keeps its bits, so its residual does; r agrees to rounding
            try:
                want_right, want_residual = general_capacitance(v_ap, u, b)
            except SingularCapacitanceError:
                with pytest.raises(SingularCapacitanceError):
                    woodbury._capacitance("update_pinv", v_ap, u, b)
                return
            right, residual = woodbury._capacitance("update_pinv", v_ap, u, b)
            assert residual == want_residual
            assert np.all(np.abs(right - want_right) <= 8 * 2.0**-52 * np.abs(want_right))
            return
        assert_agrees_with_the_general_form(split, b, b_pinv)

    def test_paths_against_lapack(self):
        # seeded K = 1 draws at unit scale: each takes the path its split
        # calls for (both null-space parts kept: the identity; neither: the
        # capacitance step; one: the fallback), and the result agrees with
        # LAPACK's direct pseudoinverse of the corrected tensor.  Rounding
        # may leave a part that the kind has none of above the split's floor
        # (TestCapacitancePath), so the path follows the split, not the kind
        rng = np.random.default_rng(41)
        kinds, paths = ("generic", "column-spaces", "u-inside", "v-inside"), []
        for draw in range(200):
            n = int(rng.integers(2, 17))
            kind = kinds[draw % 4]
            a = rand_matrix(rng, n, n, rank=int(rng.integers(1, n)) if kind != "column-spaces" else n)
            u, v = rand_matrix(rng, n, 1), rand_matrix(rng, 1, n)
            if kind in ("column-spaces", "u-inside"):
                u = a @ u
            if kind in ("column-spaces", "v-inside"):
                v = v @ a
            base = fold(a, PairedShape((n,), (n,)))
            upd = LowRankUpdate(
                fold(u, PairedShape((n,), (1,))),
                fold(rand_matrix(rng, 1, 1), PairedShape((1,), (1,))),
                fold(v, PairedShape((1,), (n,))),
                1,
            )
            result = update_pinv(base, pinv(base), upd)
            kept = int(result.parts.y1.matrix.any()) + int(result.parts.y2.matrix.any())
            paths.append(result.path)
            assert result.path == ("capacitance", "fallback", "identity")[kept], kind
            s = apply_update(base, upd).matrix
            want = np.linalg.pinv(s, rtol=n * 2.0**-52)
            sigma = np.linalg.svd(s, compute_uv=False)
            cond = sigma[0] / sigma[sigma > n * 2.0**-52 * sigma[0]][-1]
            assert_close(result.s_pinv.matrix, want, 64 * cond * n * 2.0**-52)
        assert min(paths.count(path) for path in ("identity", "capacitance", "fallback")) >= 40


class TestThinProducts:
    """Products of an N x N matrix with 2 or 3 vectors run as matrix-vector
    products; any other width is the plain ``np.matmul``.  Rows times the
    matrix go through the same rule on transposed views."""

    @settings(max_examples=100, deadline=None)
    @given(thin_product())
    def test_matches_matmul(self, case):
        m, cols, rows = case
        got_cols, want_cols = woodbury._mat_cols(m, cols), np.matmul(m, cols)
        got_rows, want_rows = woodbury._mat_cols(m.T, rows.T).T, np.matmul(rows, m)
        if not 1 < cols.shape[1] <= woodbury._MATVEC_MAX:
            assert np.array_equal(got_cols, want_cols)
        # both sum the same terms, in orders whose rounding differs by a few
        # ulps of the sum of their magnitudes; on the row side that holds at
        # every width, as BLAS may take a transposed GEMM in another order
        for got, want, scale in (
            (got_cols, want_cols, np.matmul(np.abs(m), np.abs(cols))),
            (got_rows, want_rows, np.matmul(np.abs(rows), np.abs(m))),
        ):
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
            check_conditions(parts, b)

    def test_capacitance_overflow(self):
        a = identity([2])
        u = fold(np.full((2, 1), 1e200), PairedShape((2,), (1,)))
        b = fold([[1.0]], PairedShape((1,), (1,)))
        upd = LowRankUpdate(u=u, b=b, v=u.H, order=1)
        with pytest.raises(NumericalError, match="smw_invertible"):
            smw_invertible(inverse(a), upd)

    def test_split_part_overflow(self):
        # the caller's a^+ is trusted, so a = a^+ = 1e200 I passes, and the
        # projection x1 = a (a^+ u) = 1e400 e1 overflows
        a = fold(1e200 * np.eye(2), PairedShape((2,), (2,)))
        e1 = fold([[1.0], [0.0]], PairedShape((2,), (1,)))
        upd = LowRankUpdate(e1, fold([[1.0]], PairedShape((1,), (1,))), e1.H, 1)
        msg = "decompose_update overflowed: entries must be finite"
        with pytest.raises(NumericalError, match=msg):
            decompose_update(a, a, upd)
        with pytest.raises(NumericalError, match=msg):
            update_pinv(a, a, upd)

    def test_scaled_part_overflow_raises_from_the_call(self):
        # on a = diag(1, 0), y1 = 1e-160 e2 has the subnormal Gram 1e-320,
        # whose pseudoinverse overflows, so e1 = y1 (y1^H y1)^+ comes out
        # non-finite although e1 = 1e160 e2 is representable (forming e1
        # without the Gram, ROADMAP item 3, moves where this overflow comes
        # from); the parts are wrapped when parts is first read, but every
        # check of them runs in the call
        a = fold(np.diag([1.0, 0.0]), PairedShape((2,), (2,)))
        upd = LowRankUpdate(
            fold([[0.0], [1e-160]], PairedShape((2,), (1,))),
            fold([[1.0]], PairedShape((1,), (1,))),
            fold([[1.0, 0.0]], PairedShape((1,), (2,))),
            1,
        )
        with pytest.raises(NumericalError, match="^decompose_update overflowed: entries must be finite"):
            update_pinv(a, pinv(a), upd)

    def test_k_square_svd_overflow_names_decompose_update(self):
        # regression: sigma_max of b = 1e308 (1 1; 1 1), taken in the split's
        # one LAPACK call, is beyond the float range, and the error named only
        # the SVD, where every other overflow in the split names
        # decompose_update
        a = fold(np.diag([1.0, 0.0]), PairedShape((2,), (2,)))
        i2 = identity((2,))
        upd = LowRankUpdate(i2, fold(np.full((2, 2), 1e308), PairedShape((2,), (2,))), i2, 1)
        d = fold([[1.0], [0.0]], PairedShape((2,), (1,)))
        calls = [
            lambda: update_pinv(a, pinv(a), upd),
            lambda: decompose_update(a, pinv(a), upd),
            lambda: measure_error(a, d, upd, zeros(d.shape)),
        ]
        for call in calls:
            with pytest.raises(NumericalError, match="^decompose_update overflowed"):
                call()

    def test_assembly_overflow(self):
        a_pinv = fold(1e308 * np.eye(2), PairedShape((2,), (2,)))
        e = fold(1e154 * np.eye(2)[:, :1], PairedShape((2,), (1,)))
        b_pinv = fold([[1.0]], PairedShape((1,), (1,)))
        with pytest.raises(NumericalError, match="smw_pinv_orthogonal"):
            smw_pinv_orthogonal(a_pinv, e, e, b_pinv)

    def test_hermitian_assembly_overflow(self):
        # regression: the overflow named smw_pinv, the form the variant calls
        a_pinv = fold(1e200 * np.eye(2), PairedShape((2,), (2,)))
        x = fold(1e200 * np.eye(2)[:, :1], PairedShape((2,), (1,)))
        b_pinv = fold([[1.0]], PairedShape((1,), (1,)))
        with pytest.raises(NumericalError, match="smw_pinv_hermitian overflowed"):
            smw_pinv_hermitian(a_pinv, x, x, b_pinv)


#: the split defects that ROADMAP item 3 mends
ITEM_3 = pytest.mark.xfail(strict=True, reason="ROADMAP item 3")


class TestSplitAgreesWithDirectPinv:
    """``update_pinv`` against ``pinv(apply_update(...))`` on ``a = diag(1, 0)``,
    ``b = [[1]]`` and ``u = (0, s)^T``, where ``y1 = u`` is all null space.
    The split's zero test is relative to ``|u|`` and the kernel's rank rule to
    ``sigma_max`` of the corrected tensor, and the Gram ``y1^H y1 = s^2``
    squares a small part; the xfail cases are those two defects."""

    @pytest.mark.parametrize("v, s", [
        ("s", 1e-6),
        # the direct rule calls diag(1, s^2) rank 1; the identity returns 1/s^2
        pytest.param("s", 1e-8, marks=ITEM_3),
        pytest.param("s", 1e-12, marks=ITEM_3),
        # the identity returns 1/s; the direct rule calls diag(1, s) rank 1
        pytest.param("1", 1e-150, marks=ITEM_3),
        # the subnormal Gram s^2 has a pseudoinverse beyond the float range
        pytest.param("1", 1e-155, marks=ITEM_3),
        pytest.param("1", 1e-160, marks=ITEM_3),
        # the Gram underflows to 0, e1 = 0, and the update falls back; forming
        # e1 at unit scale alone would take the identity and return 1/s here
        ("1", 1e-162),
    ])
    def test_same_pseudoinverse(self, v, s):
        a = fold(np.diag([1.0, 0.0]), PairedShape((2,), (2,)))
        upd = LowRankUpdate(
            fold([[0.0], [s]], PairedShape((2,), (1,))),
            fold([[1.0]], PairedShape((1,), (1,))),
            fold([[0.0, s if v == "s" else 1.0]], PairedShape((1,), (2,))),
            1,
        )
        got = update_pinv(a, pinv(a), upd).s_pinv.matrix
        np.testing.assert_allclose(got, pinv(apply_update(a, upd)).matrix, rtol=1e-12, atol=0)


class TestMiddleFactorOverflow:
    def test_pseudoinverse_of_b_overflows(self, example_a, ex2_update):
        # b^+ of a subnormal b is beyond the float range: a numerical failure,
        # raised without a floating-point warning (an error in this suite)
        upd = LowRankUpdate(ex2_update.u, scalar1111(5e-324), ex2_update.v, ex2_update.order)
        with pytest.raises(NumericalError, match="update_pinv overflowed: the pseudoinverse of b"):
            update_pinv(example_a, pinv(example_a), upd)

    def test_column_space_update_does_not_take_it(self, example_a, ex2):
        # regression: u = x1 and v^H = x2 lie inside a's column spaces, so the
        # split leaves no null-space part and the capacitance step, which
        # needs no b^+, runs; b^+'s overflow was raised all the same
        upd = LowRankUpdate(ex2["x1"], scalar1111(5e-324), ex2["x2h"], 2)
        result = update_pinv(example_a, pinv(example_a), upd)
        assert not (result.parts.y1.matrix.any() or result.parts.y2.matrix.any())
        assert result.path == "capacitance"
        want = np.linalg.pinv(apply_update(example_a, upd).matrix)
        assert_close(result.s_pinv.matrix, want, 1e-12)


@st.composite
def capacitance_case(draw):
    """An invertible base, or a rank-deficient one with ``u`` and ``v^H``
    inside its column spaces, at N = 16 or 64 with ``cond(a)`` up to 1e6, and
    a K-mode update (K = 1 to 4) with ``b`` singular or not.  ``b`` is scaled
    so that ``|u b v|_2`` is at most half of ``a``'s smallest nonzero singular
    value: the corrected tensor keeps ``a``'s rank with ``cond(s) <= 3
    cond(a)``, so LAPACK's pseudoinverse of it is good to a few
    ``cond(a) 2**-52``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from([(4, 4), (4, 4, 4)]))
    n, k = int(np.prod(dims)), draw(st.integers(1, 4))
    cond = 10.0 ** draw(st.floats(0.0, 6.0))
    invertible = draw(st.booleans())
    a = conditioned_tensor(rng, dims, n if invertible else n - draw(st.integers(1, 4)), cond)
    u, v = rand_tensor(rng, dims, (k,)), rand_tensor(rng, (k,), dims)
    if not invertible:
        u, v = einstein_product(a, u), einstein_product(v, a)
    b = rand_tensor(rng, (k,), (k,)).matrix.copy()
    if draw(st.booleans()):
        b[:, 0] = 0.0  # rank K - 1
    size = np.linalg.norm(u.matrix @ b @ v.matrix, 2)
    if size > 0:
        b *= draw(st.floats(0.0, 0.5)) / (cond * size)
    upd = LowRankUpdate(u=u, b=EinsteinTensor(PairedShape((k,), (k,)), b), v=v, order=1)
    return a, upd, cond


class TestCapacitancePath:
    """With no null-space part in the split, ``(a + u b v)^+ = a^+ - (a^+ u)
    C^-1 b (v a^+)`` with ``C = I + b (v a^+ u)``, whenever ``C`` is
    invertible and the split's floor is within the tolerance."""

    @settings(max_examples=80, deadline=None)
    @given(capacitance_case())
    def test_matches_lapack(self, case):
        a, upd, cond = case
        a_pinv = pinv(a)
        result = update_pinv(a, a_pinv, upd)
        # rounding of a u' may leave u a part outside a's column space above
        # the split's floor; those draws are skipped
        assume(not (result.parts.y1.matrix.any() or result.parts.y2.matrix.any()))
        n = a.matrix.shape[0]
        bound = 2 * n * 2.0**-52 * fro_norm(a) * fro_norm(a_pinv)
        assert result.path == ("capacitance" if bound <= woodbury.CONDITION_TOL else "fallback")
        # the kernel's cut n 2**-52, not numpy's default 1e-15: below it a
        # rounding singular value of a rank-deficient corrected tensor survives
        want = np.linalg.pinv(apply_update(a, upd).matrix, rtol=n * 2.0**-52)
        # 2000 seeded draws of this kind stayed within 16 cond(a) 2**-52
        assert_close(result.s_pinv.matrix, want, 64 * cond * 2.0**-52)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("invertible", [True, False], ids=["invertible", "column-space"])
    def test_rank_dropping_middle_factor_falls_back(self, rng, k, invertible):
        # b = -(v a^+ u)^-1 cancels C = I + b (v a^+ u) to rounding: the
        # corrected tensor loses K of a's rank, which no capacitance keeps
        dims = (4, 4)
        a = conditioned_tensor(rng, dims, 16 if invertible else 13, 10.0)
        a_pinv = pinv(a)
        u, v = rand_tensor(rng, dims, (k,)), rand_tensor(rng, (k,), dims)
        if not invertible:
            u, v = einstein_product(a, u), einstein_product(v, a)
        b = -np.linalg.inv(v.matrix @ a_pinv.matrix @ u.matrix)
        upd = LowRankUpdate(u=u, b=EinsteinTensor(PairedShape((k,), (k,)), b), v=v, order=1)
        result = update_pinv(a, a_pinv, upd)
        assert result.path == "fallback"
        assert result.report.residuals == {"C": math.inf}
        s = apply_update(a, upd).matrix
        rank = np.linalg.matrix_rank(s, tol=16 * 2.0**-52 * np.linalg.norm(s, 2))
        assert rank == (16 if invertible else 13) - k
        want = np.linalg.pinv(s, rtol=16 * 2.0**-52)
        assert_close(result.s_pinv.matrix, want, 1e-10)

    def test_singular_middle_factor_needs_no_pseudoinverse(self, rng):
        # the form has no b^+ in it: a zero b, whose b^+ the conditions would
        # use, gives back a^+ itself
        a = conditioned_tensor(rng, (4, 4), 16, 10.0)
        a_pinv = pinv(a)
        upd = LowRankUpdate(
            rand_tensor(rng, (4, 4), (2,)), zeros(((2,), (2,))), rand_tensor(rng, (2,), (4, 4)), 1
        )
        result = update_pinv(a, a_pinv, upd)
        assert result.path == "capacitance"
        assert np.array_equal(result.s_pinv.matrix, a_pinv.matrix)

    @pytest.mark.parametrize("k", [1, 3])
    def test_scaled_parts_are_exact_zeros(self, rng, k):
        # u and v^H inside a's column spaces: no null-space part, so e1 and e2
        # are zeros, whose kept norms are an exact 0.0
        a = conditioned_tensor(rng, (4, 4), 13, 10.0)
        upd = LowRankUpdate(
            einstein_product(a, rand_tensor(rng, (4, 4), (k,))),
            rand_tensor(rng, (k,), (k,)),
            einstein_product(rand_tensor(rng, (k,), (4, 4)), a),
            1,
        )
        parts = decompose_update(a, pinv(a), upd)
        assert not (parts.y1.matrix.any() or parts.y2.matrix.any())
        assert fro_norm(parts.e1) == fro_norm(parts.e2) == 0.0

    def test_smw_invertible_shares_the_step(self, rng, monkeypatch):
        # smw_invertible is the same step on a^-1 (see
        # test_smw_invertible_is_the_step_on_a_inverse for its bits)
        a = rand_invertible(rng, (2, 2))
        b = rand_invertible(rng, (2,), boost=2.0)
        upd = LowRankUpdate(rand_tensor(rng, (2, 2), (2,)), b, rand_tensor(rng, (2,), (2, 2)), 1)
        calls = []
        step = woodbury._capacitance

        def recorded(stage, *args):
            calls.append(stage)
            return step(stage, *args)

        monkeypatch.setattr(woodbury, "_capacitance", recorded)
        smw_invertible(inverse(a), upd)
        assert update_pinv(a, pinv(a), upd).path == "capacitance"
        assert calls == ["smw_invertible", "update_pinv"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(2,), (4,), (2, 2), (4, 4), (4, 4, 4)]),
        st.integers(1, 4),
        st.floats(0.0, 6.0),
        st.booleans(),
    )
    def test_smw_invertible_is_the_step_on_a_inverse(self, seed, dims, k, log_cond, singular_b):
        # on an invertible base, pinv(a) and inverse(a) are the same bits, and
        # smw_invertible runs update_pinv's capacitance step on them
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        a = conditioned_tensor(rng, dims, n, 10.0**log_cond)
        b = rand_tensor(rng, (k,), (k,)).matrix.copy()
        if singular_b:
            b[:, 0] = 0.0
        upd = LowRankUpdate(
            rand_tensor(rng, dims, (k,)), EinsteinTensor(PairedShape((k,), (k,)), b),
            rand_tensor(rng, (k,), dims), 1,
        )
        result = update_pinv(a, pinv(a), upd)
        assume(result.path == "capacitance")
        got = smw_invertible(inverse(a), upd)
        assert np.array_equal(got.matrix, result.s_pinv.matrix)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(4,), (4, 4), (4, 4, 4)]),
        st.integers(2, 3),
        st.floats(6.0, 12.0),
    )
    @example(seed=4846, dims=(4,), k=2, log_cond_b=6.0)
    def test_smw_invertible_ill_conditioned_middle_factor(self, seed, dims, k, log_cond_b):
        # C = I + b (v a^-1 u) stays well conditioned however ill-conditioned
        # b is, so the result is as good as cond(s) allows and C's residual,
        # read from the checked form of the same step, passes; inverting b
        # first lost up to 1e11 cond(s) 2**-52
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        a = conditioned_tensor(rng, dims, n, 10.0)
        u = rand_tensor(rng, dims, (k,)).matrix
        v = rand_tensor(rng, (k,), dims).matrix
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        b = conditioned_tensor(rng, (k,), k, 10.0**log_cond_b).matrix
        upd = LowRankUpdate(
            EinsteinTensor(PairedShape(dims, (k,)), u), EinsteinTensor(PairedShape((k,), (k,)), b),
            EinsteinTensor(PairedShape((k,), dims), v), 1,
        )
        a_inv = inverse(a)
        assert update_pinv(a, a_inv, upd).report.residuals["C"] <= woodbury.CONDITION_TOL
        got = smw_invertible(a_inv, upd)
        s = apply_update(a, upd).matrix
        assert_close(got.matrix, np.linalg.inv(s), 64 * np.linalg.cond(s) * 2.0**-52)


class TestCapacitanceOverflow:
    @pytest.mark.parametrize("u, b, v, what", CAPACITANCE_OVERFLOWS)
    def test_numerical_error(self, u, b, v, what):
        a = identity([2])
        upd = LowRankUpdate(
            fold(np.array(u)[:, None], PairedShape((2,), (1,))),
            fold([[b]], PairedShape((1,), (1,))),
            fold(np.array(v)[None, :], PairedShape((1,), (2,))),
            1,
        )
        d = fold([[1.0], [1.0]], PairedShape((2,), (1,)))
        with pytest.raises(NumericalError, match=f"update_pinv overflowed: the {what}"):
            update_pinv(a, pinv(a), upd)
        with pytest.raises(NumericalError, match=f"update_pinv overflowed: the {what}"):
            measure_error(a, d, upd, zeros(d.shape))


class TestDeferredParts:
    """``update_pinv`` keeps the split as matrices and wraps its six parts on
    the first read of ``parts``, to the tensors :func:`decompose_update`
    returns."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            identity_case(),
            capacitance_case().map(lambda case: case[:2]),
            rank_deficient_update(),
        )
    )
    def test_parts_equal_decompose_update(self, case):
        a, upd = case
        a_pinv = pinv(a)
        got = update_pinv(a, a_pinv, upd).parts
        want = decompose_update(a, a_pinv, upd)
        for name in ("x1", "y1", "x2", "y2", "e1", "e2"):
            assert getattr(got, name) == getattr(want, name), name
            assert fro_norm(getattr(got, name)) == fro_norm(getattr(want, name)), name

    def test_equality_and_repr_leave_out_the_split(self, example_a, ex2_update):
        a_pinv = pinv(example_a)
        first, second = (update_pinv(example_a, a_pinv, ex2_update) for _ in range(2))
        assert first == second
        assert first.parts is not second.parts
        assert "_split" not in repr(first) and "parts" not in repr(first)
