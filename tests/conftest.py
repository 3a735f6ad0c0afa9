"""Shared fixtures: the worked-example tensors in their display form.

The literals below are the block-matrix displays of the worked examples (see
fixtures/README.md for the display convention); ``tensor_from_block_display``
converts them to the package's flattened layout.  Tests treat these as ground
truth, and test_fixture_files.py checks the shipped JSON fixtures against
them.
"""

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
