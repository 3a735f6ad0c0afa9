"""Shared fixtures: the worked-example tensors in their display form.

The literals below are the block-matrix displays of the worked examples (see
fixtures/README.md for the display convention); ``tensor_from_block_display``
converts them to the package's flattened layout.  Tests treat these as ground
truth, and test_fixture_files.py checks the shipped JSON fixtures against
them.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from einalg import EinsteinTensor, PairedShape, tensor_from_block_display

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

F = 0.5

# Shared base tensor (rank 3 of 4), its pseudoinverse, and the scalar middle
# factor used by both update examples.
A_DISPLAY = [
    [1, -1, 0, 0],
    [0, 0, -1, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
]
A_PINV_DISPLAY = [
    [1, 0, 0, 0],
    [1, 0, 1, 0],
    [0, -F, 0, 0],
    [0, F, 0, 0],
]
B_DISPLAY = [[1]]

# Example 1: the update lies wholly outside the base tensor's column spaces.
EX1_U_DISPLAY = [[0, 0], [0, 1]]
EX1_V_DISPLAY = [[0, 1], [0, 1]]
EX1_CORRECTION_DISPLAY = [
    [0, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 1],
]
EX1_S_DISPLAY = [
    [1, -1, 0, 0],
    [0, 0, -1, 1],
    [0, 1, 0, 0],
    [0, 0, 1, 1],
]
EX1_S_PINV_DISPLAY = [
    [1, 0, 0, 0],
    [1, 0, 1, 0],
    [0, -F, 0, F],
    [0, F, 0, F],
]

# Example 2: the update has nonzero projections onto the column spaces.
EX2_U_DISPLAY = [[0, 1], [0, 1]]
EX2_V_DISPLAY = [[0, 0], [0, 2]]
EX2_S_DISPLAY = [
    [1, -1, 0, 0],
    [0, 0, -1, 0],
    [0, 1, 0, 2],
    [0, 0, 1, 2],
]
EX2_X1_DISPLAY = [[0, 1], [0, 0]]
EX2_Y1_DISPLAY = [[0, 0], [0, 1]]
EX2_X2H_DISPLAY = [[0, -1], [0, 1]]
EX2_Y2H_DISPLAY = [[0, 1], [0, 1]]
EX2_E1_DISPLAY = [[0, 0], [0, 1]]
EX2_E2_DISPLAY = [[0, F], [0, F]]
EX2_S_PINV_DISPLAY = [
    [1, 0, 0, 0],
    [1, 0, 1, 0],
    [0, -1, 0, F],
    [0, 0, -1, F],
]
# Intermediate products of the example-2 identity evaluation.
EX2_APINV_X1_E1H_DISPLAY = [
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 0, 1, 0],
]
EX2_E2_X2H_APINV_DISPLAY = [
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, F, 0, 0],
    [0, F, 0, 0],
]
EX2_E2_BPINV_E1H_DISPLAY = [
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [0, 0, 0, F],
    [0, 0, 0, F],
]

# Right-hand side of the sensitivity-sweep system.
D_DISPLAY = [[1, 2], [1, 1]]


def disp22(display):
    """(2,2 | 2,2) tensor from its 4x4 display."""
    return tensor_from_block_display(display, (2, 2), (2, 2))


def disp_col(display):
    """(2,2 | 1,1) tensor (column-like factor) from its 2x2 display."""
    return tensor_from_block_display(display, (2, 2), (1, 1))


def disp_row(display):
    """(1,1 | 2,2) tensor (row-like factor) from its 2x2 display."""
    return tensor_from_block_display(display, (1, 1), (2, 2))


def scalar1111(value):
    """(1,1 | 1,1) single-entry tensor."""
    return EinsteinTensor(PairedShape((1, 1), (1, 1)), [[value]])


def to_ndarray(t):
    """Multiway array view (axes: reversed row modes, then reversed col modes)."""
    dims = tuple(reversed(t.row_dims)) + tuple(reversed(t.col_dims))
    return t.matrix.reshape(dims)


def einsum_product(a, b):
    """Contraction oracle via numpy's einsum on the multiway-array views."""
    from einalg import fold

    na, nb = to_ndarray(a), to_ndarray(b)
    m, n = len(a.row_dims), len(a.col_dims)
    l = len(b.col_dims)
    a_axes = list(range(m + n))
    b_axes = list(range(m, m + n)) + list(range(m + n, m + n + l))
    out_axes = list(range(m)) + list(range(m + n, m + n + l))
    nd = np.einsum(na, a_axes, nb, b_axes, out_axes)
    shape = PairedShape(a.row_dims, b.col_dims)
    return fold(nd.reshape(shape.row_size, shape.col_size), shape)


def conditioned_tensor(rng, dims, rank, cond):
    """Square ``(dims | dims)`` tensor of flattened rank ``rank`` whose nonzero
    singular values run geometrically from 1 down to ``1 / cond``, between
    random unitary factors."""
    n = int(np.prod(dims))

    def orthonormal_columns():
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        return np.linalg.qr(g)[0]

    sigma = np.logspace(0, -np.log10(cond), rank)
    mat = (orthonormal_columns() * sigma) @ orthonormal_columns().conj().T
    return EinsteinTensor(PairedShape(tuple(dims), tuple(dims)), mat)


def near_cutoff_tensor(dims, rank):
    """Diagonal ``(dims | dims)`` tensor of flattened rank ``rank``: ones, and
    last 1e-14, which sits just above the kernel's cutoff ``n * 2**-52``."""
    sigma = np.zeros(int(np.prod(dims)))
    sigma[:rank] = 1.0
    sigma[rank - 1] = 1e-14
    return EinsteinTensor(PairedShape(tuple(dims), tuple(dims)), np.diag(sigma))


#: (4,4 | 4,4) bases on which ``update_pinv`` must fall back, each with the
#: relative accuracy LAPACK's pseudoinverse of the corrected tensor has there.
#: At cond 1e8 the split's floor relative to ``|u|``, ``2 * 16 * 2**-52 *
#: |a|_F |a^+|_F``, is above ``CONDITION_TOL``, and near the cutoff it is
#: about 3; the capacitance step would cancel against ``a^+``'s largest
#: entries there.
ILL_CONDITIONED_BASES = [
    pytest.param(lambda rng: conditioned_tensor(rng, (4, 4), 16, 1e8), 1e-2, id="cond1e8"),
    pytest.param(lambda rng: near_cutoff_tensor((4, 4), 16), 1e-12, id="cutoff-rank16"),
    pytest.param(lambda rng: near_cutoff_tensor((4, 4), 15), 1e-12, id="cutoff-rank15"),
]


def cond1e6_base(rng):
    """Invertible (4,4 | 4,4) base at cond 1e6: the split's floor, ``2 * 16 *
    2**-52 |a|_F |a^+|_F`` = 8.4e-9, is 16% below ``CONDITION_TOL`` (1e-8),
    so ``update_pinv`` takes the capacitance step.  LAPACK's pseudoinverse of
    a corrected tensor is good to ``COND1E6_REL`` there."""
    return conditioned_tensor(rng, (4, 4), 16, 1e6)


COND1E6_REL = 1e-4

#: Rank-one updates ``u b v`` of the 2 x 2 identity whose capacitance step
#: overflows, by what overflows: ``C``, or the factor ``r = -(C^-1 b)(v a^+)``.
CAPACITANCE_OVERFLOWS = [
    # v a^+ u = 1e400
    pytest.param((1e200, 0.0), 1.0, (1e200, 0.0), "capacitance tensor", id="capacitance"),
    # C = 1 + 1e300 * 1e-300 = 2, and C^-1 b (v a^+) = 5e299 * (1e-300, 1e300)
    pytest.param((1.0, 0.0), 1e300, (1e-300, 1e300), "capacitance factor", id="factor"),
]


def record_work(monkeypatch):
    """Lists that fill, until ``monkeypatch.undo()``, with ``(batch, rows,
    inner, cols)`` of every ``np.matmul`` call and the shape of every tensor
    built.  ``batch`` counts the products over the operands' broadcast leading
    axes (1 for two matrices), and the rest are the sizes of each product, so
    K stacked N x N x 1 products read ``(K, N, N, 1)``."""
    sizes, built = [], []
    matmul, hold = np.matmul, EinsteinTensor._hold

    def recorded_matmul(x, y, *args, **kwargs):
        batch = math.prod(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]))
        sizes.append((batch, x.shape[-2], x.shape[-1], y.shape[-1]))
        return matmul(x, y, *args, **kwargs)

    def recorded_hold(self, shape, *args):
        built.append(shape)
        hold(self, shape, *args)

    monkeypatch.setattr(np, "matmul", recorded_matmul)
    monkeypatch.setattr(EinsteinTensor, "_hold", recorded_hold)
    return sizes, built


def rand_matrix(rng, m, n, rank=None, smin=0.5, smax=2.0):
    """Random complex m x n matrix of rank ``rank`` (full by default) whose
    nonzero singular values are drawn from U(smin, smax)."""
    r = min(m, n) if rank is None else rank
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.zeros((m, n))
    if r:
        s[np.arange(r), np.arange(r)] = rng.uniform(smin, smax, size=r)
    return q1 @ s @ q2.conj().T


def rand_tensor(rng, row_dims, col_dims, real=False):
    shape = PairedShape(tuple(row_dims), tuple(col_dims))
    size = (shape.row_size, shape.col_size)
    mat = rng.standard_normal(size)
    if not real:
        mat = mat + 1j * rng.standard_normal(size)
    return EinsteinTensor(shape, mat)


@pytest.fixture
def example_a():
    return disp22(A_DISPLAY)


@pytest.fixture
def example_a_pinv():
    return disp22(A_PINV_DISPLAY)


@pytest.fixture
def example_b():
    return scalar1111(1.0)


@pytest.fixture
def example_d():
    return disp_col(D_DISPLAY)


@pytest.fixture
def ex1():
    return {
        "u": disp_col(EX1_U_DISPLAY),
        "v": disp_row(EX1_V_DISPLAY),
        "s": disp22(EX1_S_DISPLAY),
        "s_pinv": disp22(EX1_S_PINV_DISPLAY),
        "correction": disp22(EX1_CORRECTION_DISPLAY),
    }


@pytest.fixture
def ex2():
    return {
        "u": disp_col(EX2_U_DISPLAY),
        "v": disp_row(EX2_V_DISPLAY),
        "s": disp22(EX2_S_DISPLAY),
        "s_pinv": disp22(EX2_S_PINV_DISPLAY),
        "x1": disp_col(EX2_X1_DISPLAY),
        "y1": disp_col(EX2_Y1_DISPLAY),
        "x2h": disp_row(EX2_X2H_DISPLAY),
        "y2h": disp_row(EX2_Y2H_DISPLAY),
        "e1": disp_col(EX2_E1_DISPLAY),
        "e2": disp_col(EX2_E2_DISPLAY),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def overflow_update():
    """Finite base ``diag(1, 1, 1, 0)`` and update ``u b v`` whose null-space
    parts have entries near 1e200, so the Gram ``y1^H y1`` (about 1e400)
    overflows although every input and the corrected tensor are finite."""
    shape = PairedShape((4,), (4,))
    k = PairedShape((1,), (1,))
    return {
        "a": EinsteinTensor(shape, np.diag([1.0, 1.0, 1.0, 0.0])),
        "u": EinsteinTensor(PairedShape((4,), (1,)), np.full((4, 1), 1e200)),
        "b": EinsteinTensor(k, [[1e-100]]),
        "v": EinsteinTensor(PairedShape((1,), (4,)), np.full((1, 4), 1e200)),
    }
