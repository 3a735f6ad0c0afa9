"""Core tensor algebra, checked against independent contraction oracles, and
the flattening round-trips and product homomorphism."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einalg as ea
from einalg import (
    DomainError,
    EinsteinTensor,
    NumericalError,
    PairedShape,
    ShapeError,
    add,
    einstein_product,
    fold,
    fro_norm,
    identity,
    inner,
    is_hermitian,
    kronecker,
    scale,
    trace,
    unfold,
    zeros,
)

from einalg.tensor import _frobenius, _returned

from conftest import einsum_product, rand_tensor


def loop_product(a, b):
    """Entry-by-entry evaluation of the contraction sum (the defining formula)."""
    out = zeros(PairedShape(a.row_dims, b.col_dims))
    mat = np.array(out.matrix)
    row_ranges = [range(1, d + 1) for d in a.row_dims]
    col_ranges = [range(1, d + 1) for d in b.col_dims]
    sum_ranges = [range(1, d + 1) for d in a.col_dims]
    for i in itertools.product(*row_ranges):
        for k in itertools.product(*col_ranges):
            acc = 0j
            for j in itertools.product(*sum_ranges):
                acc += a.entry(i, j) * b.entry(j, k)
            p = ea.phi_index(i, a.row_dims)
            q = ea.phi_index(k, b.col_dims)
            mat[p - 1, q - 1] = acc
    return fold(mat, out.shape)


class TestConstruction:
    def test_rejects_wrong_size(self):
        with pytest.raises(ShapeError):
            EinsteinTensor(PairedShape((2,), (2,)), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            EinsteinTensor(PairedShape((2,), (1,)), [[np.nan], [0.0]])
        with pytest.raises(DomainError):
            EinsteinTensor(PairedShape((2,), (1,)), [[1j * np.inf], [0.0]])

    def test_immutable(self, example_a):
        with pytest.raises(ValueError):
            example_a.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("build", [
        lambda mat, shape: EinsteinTensor(shape, mat),
        lambda mat, shape: fold(mat, shape),
    ], ids=["constructor", "fold"])
    def test_caller_array_is_copied(self, build):
        # the public constructors keep their own copy: writing the caller's
        # array afterwards leaves the tensor as built
        mat = np.arange(6, dtype=np.complex128).reshape(2, 3)
        t = build(mat, PairedShape((2,), (3,)))
        mat[0, 0] = 99.0
        assert t.entry((1,), (1,)) == 0.0
        assert np.array_equal(t.matrix, np.arange(6).reshape(2, 3))

    def test_entry_uses_one_based_indices(self, example_a):
        assert example_a.entry((1, 1), (1, 1)) == 1.0
        assert example_a.entry((1, 2), (1, 1)) == -1.0
        assert example_a.entry((2, 1), (2, 2)) == 1.0


class TestZerosIdentity:
    def test_zeros(self):
        z = zeros(PairedShape((2, 2), (2, 2)))
        assert z.matrix.shape == (4, 4)
        assert not z.matrix.any()
        assert fro_norm(z) == 0.0
        assert fro_norm(zeros(PairedShape((1, 1), (1, 1)))) == 0.0

    def test_identity_unfolds_to_eye(self):
        assert np.array_equal(identity([2, 2]).matrix, np.eye(4))
        assert np.array_equal(identity([3]).matrix, np.eye(3))

    def test_identity_entries_are_mode_deltas(self):
        t = identity([2, 3])
        for i in itertools.product(range(1, 3), range(1, 4)):
            for j in itertools.product(range(1, 3), range(1, 4)):
                expected = 1.0 if i == j else 0.0
                assert t.entry(i, j) == expected

    def test_identity_is_left_neutral(self, example_a):
        assert einstein_product(identity([2, 2]), example_a) == example_a

    def test_identity_needs_modes(self):
        with pytest.raises(ShapeError):
            identity([])


class TestAddScale:
    def test_add_zero_is_neutral(self, example_a):
        assert add(example_a, zeros(example_a.shape)) == example_a

    def test_add_negation_gives_zero(self, example_a):
        assert add(example_a, scale(example_a, -1)) == zeros(example_a.shape)

    def test_add_shape_mismatch(self, example_a, example_b):
        with pytest.raises(ShapeError):
            add(example_a, example_b)

    def test_scale_by_one(self, example_a):
        assert scale(example_a, 1) == example_a

    def test_scale_doubles_entries(self, example_a):
        assert scale(example_a, 2).entry((1, 1), (1, 1)) == 2.0

    def test_scale_norm_homogeneous(self, rng):
        t = rand_tensor(rng, (2, 3), (2,))
        alpha = 1.7
        assert fro_norm(scale(t, alpha)) == pytest.approx(alpha * fro_norm(t), rel=1e-12)

    def test_operator_sugar(self, example_a):
        assert (example_a + example_a) == scale(example_a, 2)
        assert (example_a - example_a) == zeros(example_a.shape)
        assert (2 * example_a) == scale(example_a, 2)
        assert (-example_a) == scale(example_a, -1)
        assert (example_a @ example_a.H) == einstein_product(example_a, example_a.H)
        # a non-tensor operand falls back to identity comparison
        assert (example_a == 3) is False


class TestEinsteinProduct:
    def test_matches_loop_oracle(self, rng):
        a = rand_tensor(rng, (2, 3), (2, 2))
        b = rand_tensor(rng, (2, 2), (3, 1))
        got = einstein_product(a, b)
        want = loop_product(a, b)
        assert np.allclose(got.matrix, want.matrix, rtol=0, atol=1e-13)
        assert got.shape == PairedShape((2, 3), (3, 1))

    def test_matches_einsum_oracle(self, rng):
        for _ in range(25):
            m, n, l = (int(rng.integers(1, 3)) for _ in range(3))
            rd = tuple(int(rng.integers(1, 4)) for _ in range(m))
            cd = tuple(int(rng.integers(1, 4)) for _ in range(n))
            bd = tuple(int(rng.integers(1, 4)) for _ in range(l))
            a = rand_tensor(rng, rd, cd)
            b = rand_tensor(rng, cd, bd)
            got = einstein_product(a, b)
            want = einsum_product(a, b)
            assert np.allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_mode_mismatch_rejected(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        b = rand_tensor(rng, (2,), (3,))
        with pytest.raises(ShapeError):
            einstein_product(a, b)

    def test_pinv_product_reproduces_base(self, example_a, example_a_pinv):
        # a * a+ * a == a for the worked example pair
        got = einstein_product(einstein_product(example_a, example_a_pinv), example_a)
        assert np.allclose(got.matrix, example_a.matrix, atol=1e-12)


class TestConjTranspose:
    def test_worked_example_column(self, example_a):
        # column (1,2) of the transposed tensor as a 2x2 slice over its row modes
        ah = example_a.H
        col = np.array(
            [[ah.entry((i1, i2), (1, 2)) for i2 in (1, 2)] for i1 in (1, 2)]
        )
        assert np.array_equal(col.real, [[-1, 0], [1, 0]])

    def test_involution(self, rng):
        t = rand_tensor(rng, (2, 3), (2,))
        assert t.H.H == t

    def test_unfold_is_conjugate_transpose_exactly(self, rng):
        t = rand_tensor(rng, (3, 2), (4,))
        assert np.array_equal(t.H.matrix, t.matrix.conj().T)

    def test_symmetrization_is_hermitian(self, rng):
        t = rand_tensor(rng, (2, 2), (2, 2))
        assert is_hermitian(t + t.H)

    def test_example_base_not_hermitian(self, example_a):
        assert not is_hermitian(example_a)

    def test_identity_hermitian(self):
        assert is_hermitian(identity([2, 2]))

    def test_huge_entries_relative_deviation(self):
        # deviation 1.4e160 against |a| = 1e171: relative 1.4e-11, although
        # the plain sum of squares of the deviation overflows
        a = EinsteinTensor(PairedShape((2,), (2,)), [[1e171, 1e160], [0.0, 1.0]])
        assert is_hermitian(a)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ShapeError):
            is_hermitian(rand_tensor(rng, (2,), (3,)))

    def test_overflowing_deviation_is_not_hermitian(self):
        # a - a^H overflows to inf: the verdict is false, and no RuntimeWarning
        # (an error under this suite's filter) comes first
        a = EinsteinTensor(PairedShape((2,), (2,)), [[0.0, 1.5e308], [-1.5e308, 0.0]])
        assert not is_hermitian(a)

    def test_overflowing_norm_measures_no_deviation(self):
        # regression: |a| overflows to inf while a - a^H is finite, and
        # |a - a^H| / inf = 0 passed any deviation; no deviation still passes
        a = EinsteinTensor(PairedShape((2,), (2,)), [[1.2e308, 1.2e308], [0.0, 1.2e308]])
        assert fro_norm(a) == math.inf
        assert not is_hermitian(a)
        assert is_hermitian(EinsteinTensor(PairedShape((3,), (3,)), np.diag([1.2e308] * 3)))


class TestKronecker:
    def test_worked_example_correction(self, example_b, ex1):
        # u (x) v^H contracted against the scalar factor gives the correction
        big = kronecker(ex1["u"], ex1["v"].H)
        b_as_rows = fold(
            example_b.matrix.reshape(1, 1), PairedShape((1, 1, 1, 1), ())
        )
        flat = einstein_product(big, b_as_rows)
        correction = fold(
            flat.matrix.reshape(4, 4, order="F"), PairedShape((2, 2), (2, 2))
        )
        assert np.allclose(correction.matrix, ex1["correction"].matrix, atol=1e-14)

    def test_unit_factor_appends_singleton_modes(self, example_a):
        t = kronecker(example_a, identity([1]))
        assert t.shape == PairedShape((2, 2, 1), (2, 2, 1))
        assert np.array_equal(t.matrix, example_a.matrix)

    def test_two_sided_product_identity(self, rng):
        # a *_N z *_M b == (a (x) b^H) *_{N+M} z with z regrouped to row modes;
        # the conjugation falls on b, so b must be real for the two sides to
        # agree (a and z may be complex).
        for _ in range(10):
            a = rand_tensor(rng, (2, 3), (2, 2))
            z = rand_tensor(rng, (2, 2), (3,))
            b = rand_tensor(rng, (3,), (4,), real=True)
            lhs = einstein_product(einstein_product(a, z), b)
            big = kronecker(a, b.H)
            z_rows = fold(
                z.matrix.reshape(-1, 1, order="F"), PairedShape((2, 2, 3), ())
            )
            rhs_flat = einstein_product(big, z_rows)
            rhs = fold(
                rhs_flat.matrix.reshape(6, 4, order="F"), PairedShape((2, 3), (4,))
            )
            bound = 1e-10 * fro_norm(z) * fro_norm(a) * fro_norm(b)
            assert fro_norm(lhs - rhs) <= bound

    def test_kron_layout_matches_entry_products(self, rng):
        a = rand_tensor(rng, (2,), (2,))
        b = rand_tensor(rng, (3,), (2,))
        t = kronecker(a, b)
        for ia, ib, ja, jb in itertools.product(
            range(1, 3), range(1, 4), range(1, 3), range(1, 3)
        ):
            want = a.entry((ia,), (ja,)) * b.entry((ib,), (jb,))
            assert t.entry((ia, ib), (ja, jb)) == pytest.approx(want)

    def test_overflow_rejected(self):
        with pytest.raises(ShapeError):
            PairedShape((2**40, 2**40), (2**40, 2**40))


def _full(value):
    return EinsteinTensor(PairedShape((2,), (2,)), np.full((2, 2), value))


class TestAlgebraOverflow:
    """An overflow from finite operands is a numerical failure named by its
    function, with no RuntimeWarning first."""

    @pytest.mark.parametrize("fn, args", [
        (add, (_full(1.5e308), _full(1.5e308))),
        (scale, (_full(1e200), 1e200)),
        (einstein_product, (_full(1e200), _full(1e200))),
        (kronecker, (_full(1e200), _full(1e200))),
        # regression: trace returned inf with a RuntimeWarning, inner silently
        (trace, (_full(1.5e308),)),
        (inner, (_full(1e200), _full(1e200))),
    ], ids=["add", "scale", "einstein_product", "kronecker", "trace", "inner"])
    def test_overflow_is_numerical(self, fn, args):
        with pytest.raises(NumericalError, match=f"^{fn.__name__} overflowed"):
            fn(*args)

    @pytest.mark.parametrize("base", [0.0, 1.0])
    @pytest.mark.parametrize("c", [math.inf, complex(0.0, math.nan)])
    def test_scale_by_non_finite_is_input_error(self, base, c):
        with pytest.raises(DomainError, match="scale factor must be finite"):
            scale(_full(base), c)


class TestDivide:
    """``t / c`` is ``t * (1 / c)``: a zero or non-finite divisor is an input
    error, and a quotient that overflows is a numerical failure."""

    @pytest.mark.parametrize(
        "c", [0, 0j, -0.0, math.inf, complex(0.0, math.nan)],
        ids=["zero", "complex-zero", "negative-zero", "inf", "nan"],
    )
    def test_zero_or_non_finite_divisor_is_input_error(self, c):
        with pytest.raises(DomainError, match="divisor must be finite and nonzero"):
            identity([2]) / c

    @pytest.mark.parametrize("t, c", [
        (identity([2]), 1e-320),  # 1 / c is not finite
        (_full(1e200), 1e-200),
    ], ids=["reciprocal", "entries"])
    def test_overflow_is_numerical(self, t, c):
        with pytest.raises(NumericalError, match="^divide overflowed"):
            t / c

    @pytest.mark.parametrize("c", [3, -0.5, 2.5 - 1j, 1e-300, 1e300])
    def test_quotient_is_product_with_reciprocal(self, rng, c):
        t = rand_tensor(rng, (2, 3), (4,))
        got = t / c
        assert got.shape == t.shape
        assert got.matrix.tobytes() == scale(t, 1.0 / complex(c)).matrix.tobytes()

    @pytest.mark.parametrize("c", [1e308 + 1e308j, -1.7e308 + 1.7e308j, 1.7e308j])
    def test_divisor_near_the_largest_float(self, c):
        # CPython's 1 / c is 0 for the first two, whose denominators overflow
        # (|c| itself is beyond the float range for the second); the quotient
        # at unit scale is 1e10 / c, here (1e10 / (c 2**-20)) 2**-20
        want = 1e10 / (c * 2.0**-20) * 2.0**-20
        got = ea.EinsteinTensor(((1,), (1,)), [[1e10]]) / c
        assert want != 0
        assert abs(got.entry((1,), (1,)) - want) <= 4 * 2.0**-52 * abs(want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 2.0**-20),
        st.floats(-1.0, 1.0),
        st.integers(-400, 400),
        st.integers(-30, 30),
    )
    def test_ordinary_divisor_agrees_with_the_reciprocal(self, seed, re, im, e, spread):
        # a divisor whose parts and quotient stay far from the ends of the
        # float range: t / c is t * (1 / c) to 2 ulp of each entry
        c = complex(math.ldexp(re, e), math.ldexp(im, e + spread))
        t = rand_tensor(np.random.default_rng(seed), (3,), (2,))
        want = t.matrix * (1.0 / c)
        got = (t / c).matrix
        assert np.all(np.abs(got - want) <= 2 * 2.0**-52 * np.abs(want))


def _beyond_float_cases():
    """The public entry points, other than those with a ``tol``, that read a
    number the caller gives, each as a call on that number, the message of
    the rejection when it is beyond the float range (``inf``, or ``-inf``
    for a negative one), and the message of the rejection when it is not a
    number: text, ``None``, another object, and a complex number where a
    real is read."""
    t = identity([2])
    spec = ea.PerturbationSpec(0.1, 0.1)
    shape = PairedShape((2,), (2,))

    def matrix(h):
        return [[h, 0], [0, 1]]

    entries = "^entries must be finite$"
    not_entries = "^entries must be numbers in a rectangular array$"

    def not_real(name):
        return f"^{name} must be a real number, got "

    return {
        "EinsteinTensor": (lambda h: EinsteinTensor(shape, matrix(h)), entries, not_entries),
        "fold": (lambda h: fold(matrix(h), shape), entries, not_entries),
        "tensor_from_block_display": (
            lambda h: ea.tensor_from_block_display([[h, 0, 0, 0]] * 4, (2, 2), (2, 2)),
            entries,
            not_entries,
        ),
        "svd": (lambda h: ea.svd(matrix(h)), entries, not_entries),
        "pinv_matrix": (lambda h: ea.pinv_matrix(matrix(h)), entries, not_entries),
        "inv_matrix": (lambda h: ea.inv_matrix(matrix(h)), entries, not_entries),
        "numerical_rank": (lambda h: ea.numerical_rank(matrix(h)), entries, not_entries),
        "scale": (
            lambda h: scale(t, h),
            r"scale factor must be finite, got \(-?inf\+0j\)",
            "^scale factor must be a number, got ",
        ),
        "multiply": (
            lambda h: t * h,
            r"scale factor must be finite, got \(-?inf\+0j\)",
            "^scale factor must be a number, got ",
        ),
        "divide": (
            lambda h: t / h,
            r"divisor must be finite and nonzero, got \(-?inf\+0j\)",
            "^divisor must be a number, got ",
        ),
        "sweep-eps_a": (
            lambda h: ea.sweep(t, t, [h], 0.1, [1.0]),
            "eps_a must be finite and >= 0, got -?inf",
            not_real("eps_a"),
        ),
        "sweep-alpha": (
            lambda h: ea.sweep(t, t, [0.1], 0.1, [h]),
            "alpha scalings must be finite",
            not_real("alpha"),
        ),
        "sweep-eps_d": (
            lambda h: ea.sweep(t, t, [0.1], h, [1.0]),
            "eps_d must be finite and >= 0, got -?inf",
            not_real("eps_d"),
        ),
        "PerturbationSpec": (
            lambda h: ea.PerturbationSpec(h, 0),
            "eps_a must be finite and >= 0, got -?inf",
            not_real("eps_a"),
        ),
        "norm_bound": (
            lambda h: ea.norm_bound(h, 1, spec),
            "norm_a must be finite and >= 0, got -?inf",
            not_real("norm_a"),
        ),
        "BoundReport": (
            lambda h: ea.BoundReport(1, 1, h, 0),
            "eps_a must be finite and >= 0, got -?inf",
            not_real("eps_a"),
        ),
    }


#: Inputs that are not numbers; ``1j`` is one only where a complex is read.
_NOT_NUMBERS = {"'x'": "x", "'0.5'": "0.5", "None": None, "object()": object(), "1j": 1j}


class TestBeyondFloatRange:
    """A number beyond the float range, such as the Python int ``10**400``, is
    not finite: every public entry point rejects it as an input error, with a
    message that shows it as ``inf``, never the int's digits.  What is not a
    number at all is an input error too."""

    @pytest.mark.parametrize("h", [10**400, 10**5000], ids=["10**400", "10**5000"])
    @pytest.mark.parametrize("name", list(_beyond_float_cases()))
    def test_rejected_as_input_error(self, name, h):
        # regression: the arrays, scale, * and / and sweep leaked numpy's or
        # Python's OverflowError, PerturbationSpec accepted the int, and
        # norm_bound and BoundReport called it an overflow (NumericalError);
        # a message that printed 10**5000 would raise ValueError, since it
        # passes Python's 4300-digit limit for int to str
        call, message, _ = _beyond_float_cases()[name]
        with pytest.raises(DomainError, match=message):
            call(h)
        with pytest.raises(DomainError, match=message):
            call(-h)

    @pytest.mark.parametrize(
        "name, junk",
        [
            (name, junk)
            for name, (_, _, message) in _beyond_float_cases().items()
            for junk in _NOT_NUMBERS
            if junk != "1j" or "real" in message
        ],
    )
    def test_non_number_rejected_as_input_error(self, name, junk):
        # regression: text, None and other objects leaked numpy's or Python's
        # ValueError or TypeError, and a str that spells a number ("0.5") was
        # read as one by the arrays and scale, and stored by PerturbationSpec
        call, _, message = _beyond_float_cases()[name]
        with pytest.raises(DomainError, match=message):
            call(_NOT_NUMBERS[junk])


class TestTraceInnerNorm:
    def test_trace_identity(self):
        assert trace(identity([2, 2])) == 4.0

    def test_trace_worked_example(self, example_a):
        # oracle: sum of the flattened matrix diagonal
        assert trace(example_a) == pytest.approx(np.trace(example_a.matrix))
        assert trace(example_a) == 1.0

    def test_trace_zero(self):
        assert trace(zeros(PairedShape((2, 2), (2, 2)))) == 0.0

    def test_trace_non_square(self, rng):
        a = rand_tensor(rng, (2,), (3,))
        with pytest.raises(ShapeError):
            trace(a)
        with pytest.raises(ShapeError, match="^inner: the shape of b must be "):
            inner(a, a.H)

    def test_inner_vs_trace_oracle(self, rng):
        a = rand_tensor(rng, (2, 2), (3,))
        b = rand_tensor(rng, (2, 2), (3,))
        want = trace(einstein_product(a.H, b))
        assert inner(a, b) == pytest.approx(want, rel=1e-12)

    def test_inner_squared_norm_worked_example(self, example_a):
        assert inner(example_a, example_a) == pytest.approx(5.0)
        assert fro_norm(example_a) == pytest.approx(math.sqrt(5.0))

    def test_inner_zero(self, example_a):
        assert inner(example_a, zeros(example_a.shape)) == 0.0

    def test_inner_conjugate_symmetry(self, rng):
        a = rand_tensor(rng, (2,), (2, 2))
        b = rand_tensor(rng, (2,), (2, 2))
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate(), rel=1e-12)

    def test_norm_of_pinv_worked_example(self, example_a_pinv):
        assert fro_norm(example_a_pinv) == pytest.approx(math.sqrt(3.5))

    def test_norm_of_identity(self):
        assert fro_norm(identity([2, 2])) == 2.0

    def test_norm_inner_consistency(self, rng):
        t = rand_tensor(rng, (3,), (2, 2))
        assert fro_norm(t) ** 2 == pytest.approx(inner(t, t).real, rel=1e-12)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-170])
    def test_norm_beyond_squared_range(self, magnitude):
        # regression: the plain sum of squares overflowed to inf at 1e200 and
        # underflowed to 0 at 1e-170
        t = fold(np.diag([3.0, 4.0j]) * magnitude, PairedShape((2,), (2,)))
        assert fro_norm(t) == pytest.approx(5.0 * magnitude, rel=1e-15, abs=0.0)

    def test_norm_of_non_finite_matrix(self):
        # regression: the rescale fallback divided inf / inf, which warns
        # (an error under this suite's filter) and gave nan for an infinite entry
        assert _frobenius(np.array([[np.inf]])) == np.inf
        assert math.isnan(_frobenius(np.array([[np.nan]])))
        # regression: max(0.0, nan) is 0.0, so a nan imaginary part beside
        # zero real parts gave a norm of 0 and the tensor was built
        assert math.isnan(_frobenius(np.array([[complex(0.0, np.nan)]])))

    @pytest.mark.parametrize("entry", [5e-324, 1e-310 + 0j, -2.5e-320j, 3e-309 - 4e-309j])
    def test_norm_of_subnormal_matrix(self, entry):
        # regression: dividing a complex matrix by a subnormal largest part
        # overflowed (a warning, an error under this suite's filter) to nan
        assert _frobenius(np.array([[entry]])) == abs(entry)
        assert fro_norm(EinsteinTensor(PairedShape((1,), (1,)), [[entry]])) == abs(entry)

    def test_norm_of_subnormal_entries(self):
        mat = np.array([[3e-320, 4e-320j], [0.0, -0.0]])
        assert _frobenius(mat) == pytest.approx(5e-320, rel=1e-3, abs=0.0)

    def test_norm_beyond_float_range_is_inf(self):
        # every entry is finite, the norm itself is not: the tensor is still built
        t = EinsteinTensor(PairedShape((2,), (1,)), [[1.5e308], [1.5e308j]])
        assert fro_norm(t) == math.inf

    def test_non_finite_entry_rejected_at_any_scale(self):
        for small in (0.0, 5e-324, 1e-200, 1.0, 1e300):
            for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(0.0, np.nan)):
                with pytest.raises(DomainError):
                    EinsteinTensor(PairedShape((2,), (1,)), [[small], [bad]])


#: Finite parts across the whole range: signed zeros, subnormals, both sides of
#: the squared range (1e-154, 1e154) and entries up to 1e300.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-154, 1e154, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
    st.floats(min_value=1e154, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
)


@st.composite
def complex_matrix(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = draw(st.lists(_PARTS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


class TestKeptNorm:
    @settings(max_examples=200, deadline=None)
    @given(complex_matrix())
    def test_kept_norm_is_frobenius(self, mat):
        # construction keeps the norm its finiteness pass computed, bit for bit
        shape = PairedShape((mat.shape[0],), (mat.shape[1],))
        want = _frobenius(mat)
        for t in (EinsteinTensor(shape, mat), _returned("kept norm", shape, mat.copy())):
            assert fro_norm(t) == want == _frobenius(t.matrix)

    def test_norm_is_not_recomputed(self, rng, monkeypatch):
        t = rand_tensor(rng, (3,), (2,))
        want = fro_norm(t)
        monkeypatch.setattr(np, "vdot", None)
        assert fro_norm(t) == want


@st.composite
def conforming_pair(draw):
    rd = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    cd = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    bd = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rand_tensor(rng, rd, cd), rand_tensor(rng, cd, bd)


class TestNormInequalities:
    @settings(max_examples=60, deadline=None)
    @given(conforming_pair())
    def test_product_norm_submultiplicative(self, pair):
        a, b = pair
        assert fro_norm(einstein_product(a, b)) <= fro_norm(a) * fro_norm(b) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(conforming_pair())
    def test_sum_norm_triangle(self, pair):
        a, _ = pair
        rng = np.random.default_rng(1234)
        b = rand_tensor(rng, a.row_dims, a.col_dims)
        assert fro_norm(a + b) <= fro_norm(a) + fro_norm(b) + 1e-12


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
