"""Flattening round-trips, the product homomorphism, and rank predicates."""

import numpy as np
import pytest

from einalg import (
    PairedShape,
    ShapeError,
    einstein_product,
    fold,
    full_column_rank,
    full_row_rank,
    identity,
    is_invertible,
    unfold,
    unfold_rank,
    zeros,
)

from conftest import rand_tensor


class TestUnfoldFold:
    def test_unfold_is_a_view(self, example_a):
        assert unfold(example_a) is example_a.matrix

    def test_worked_example_structure(self, example_a):
        mat = unfold(example_a)
        nz = np.abs(mat) > 0
        assert nz.sum() == 5
        assert np.all(np.abs(mat[nz]) == 1.0)
        assert np.linalg.matrix_rank(mat) == 3

    def test_fold_identity_matrix(self):
        assert fold(np.eye(4), PairedShape((2, 2), (2, 2))) == identity([2, 2])

    def test_round_trip_bit_exact(self, rng):
        t = rand_tensor(rng, (2, 3), (2, 2))
        assert fold(unfold(t), t.shape) == t

    def test_fold_size_mismatch(self):
        with pytest.raises(ShapeError):
            fold(np.zeros((2, 3)), PairedShape((2,), (2,)))

    def test_fold_of_matrix_product_is_einstein_product(self, rng):
        a = rand_tensor(rng, (2, 2), (3,))
        b = rand_tensor(rng, (3,), (2, 2))
        want = einstein_product(a, b)
        got = fold(unfold(a) @ unfold(b), PairedShape((2, 2), (2, 2)))
        assert np.allclose(got.matrix, want.matrix, atol=1e-13)

    def test_homomorphism_fuzz(self, rng):
        for _ in range(50):
            m, n, l = (int(rng.integers(1, 4)) for _ in range(3))
            rd = tuple(int(rng.integers(1, 4)) for _ in range(m))
            cd = tuple(int(rng.integers(1, 4)) for _ in range(n))
            bd = tuple(int(rng.integers(1, 4)) for _ in range(l))
            a = rand_tensor(rng, rd, cd)
            b = rand_tensor(rng, cd, bd)
            lhs = unfold(einstein_product(a, b))
            rhs = unfold(a) @ unfold(b)
            denom = max(1.0, np.linalg.norm(rhs))
            assert np.linalg.norm(lhs - rhs) / denom <= 1e-12


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
