"""The package's public surface: ``einalg.__all__`` names a fixed set of objects."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import einalg

PUBLIC_NAMES = {
    "EinalgError",
    "ShapeError",
    "IndexOutOfRangeError",
    "DomainError",
    "NumericalError",
    "SingularError",
    "SingularMatrixError",
    "SingularTensorError",
    "SingularCapacitanceError",
    "DegenerateSolutionError",
    "PairedShape",
    "phi_index",
    "phi_inverse",
    "EinsteinTensor",
    "zeros",
    "identity",
    "add",
    "scale",
    "einstein_product",
    "conj_transpose",
    "kronecker",
    "trace",
    "inner",
    "fro_norm",
    "is_hermitian",
    "unfold",
    "fold",
    "unfold_rank",
    "full_row_rank",
    "full_column_rank",
    "is_invertible",
    "Svd",
    "svd",
    "pinv_matrix",
    "inv_matrix",
    "numerical_rank",
    "PenroseReport",
    "inverse",
    "pinv",
    "verify_penrose",
    "LowRankUpdate",
    "SplitParts",
    "ConditionReport",
    "UpdatedPinv",
    "apply_update",
    "smw_invertible",
    "decompose_update",
    "check_conditions",
    "smw_pinv",
    "smw_pinv_orthogonal",
    "smw_pinv_hermitian",
    "update_pinv",
    "SolveResult",
    "PerturbationSpec",
    "BoundReport",
    "solve",
    "norm_bound",
    "measure_error",
    "sweep",
    "load_tensor",
    "save_tensor",
    "tensor_to_dict",
    "tensor_from_dict",
    "tensor_from_block_display",
    "__version__",
}


def test_public_names_fixed():
    assert len(PUBLIC_NAMES) == 65
    assert set(einalg.__all__) == PUBLIC_NAMES


def test_no_public_name_listed_twice():
    assert len(einalg.__all__) == len(set(einalg.__all__))


def test_every_public_name_resolves():
    for name in einalg.__all__:
        assert hasattr(einalg, name), name


def test_init_holds_no_code_of_its_own():
    # the coverage gate in CI writes no cover file for a package __init__, so
    # a function or class there would go unchecked: the module holds only its
    # docstring, imports and assignments
    tree = ast.parse(Path(einalg.__file__).read_text())
    assert ast.get_docstring(tree)
    for node in tree.body[1:]:
        assert isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign)), ast.dump(node)


def test_unfold_is_the_function():
    # the flattening functions live with the tensor storage they expose
    assert einalg.unfold is einalg.tensor.unfold


def test_no_unfold_submodule():
    assert importlib.util.find_spec("einalg.unfold") is None


@pytest.mark.parametrize(
    "name, params",
    [
        # the paired shapes fix the contraction order
        ("einstein_product", ["a", "b"]),
        # y enters the Hermitian identity only through e = y (y^H y)^+
        ("smw_pinv_hermitian", ["a_pinv", "x", "e", "b_pinv"]),
        # update_pinv and measure_error always split at the kernel's rule
        ("decompose_update", ["a", "a_pinv", "upd"]),
        # the capacitance C = I + b (v a^-1 u) needs no b^-1
        ("smw_invertible", ["a_inv", "upd"]),
        # b^+ is taken from b
        ("check_conditions", ["parts", "b"]),
        # bound is computed from the two norms and the two eps levels
        ("BoundReport", ["norm_a", "norm_a_pinv", "eps_a", "eps_d", "measured_error"]),
        # the perturbed system is updated at update_pinv's default tolerance
        ("measure_error", ["a", "d", "upd", "delta_d"]),
        # rank is decided by the rule inverse and pinv apply by default
        ("unfold_rank", ["a"]),
        ("full_row_rank", ["a"]),
        ("full_column_rank", ["a"]),
        ("is_invertible", ["a"]),
        ("numerical_rank", ["mat"]),
        # the rank multiplier is set only through pinv
        ("svd", ["mat"]),
        ("pinv_matrix", ["mat"]),
    ],
)
def test_signature(name, params):
    assert list(inspect.signature(getattr(einalg, name)).parameters) == params


def test_low_rank_update_takes_order():
    # the benchmark workloads build their updates with an explicit order
    assert list(inspect.signature(einalg.LowRankUpdate).parameters) == ["u", "b", "v", "order"]


def _tol_calls():
    # a = I_2, u = e1, b = 1, v = -e1^T: a is its own pseudoinverse, the
    # split has no null-space part, and C = 1 + b v a^+ u = 0 is singular, so
    # at a valid tol update_pinv falls back to pinv(diag(0, 1))
    a = einalg.identity((2,))
    upd = einalg.LowRankUpdate(
        u=einalg.EinsteinTensor(((2,), (1,)), [[1], [0]]),
        b=einalg.EinsteinTensor(((1,), (1,)), [[1]]),
        v=einalg.EinsteinTensor(((1,), (2,)), [[-1, 0]]),
        order=1,
    )
    return {
        "pinv": lambda tol: einalg.pinv(a, tol),
        "update_pinv": lambda tol: einalg.update_pinv(a, a, upd, tol),
        "solve": lambda tol: einalg.solve(a, a, tol),
        "verify_penrose": lambda tol: einalg.verify_penrose(a, a, tol),
        "is_hermitian": lambda tol: einalg.is_hermitian(a, tol),
    }


@pytest.mark.parametrize(
    "tol", [float("nan"), float("inf"), -1.0, pytest.param(10**400, id="10**400")]
)
@pytest.mark.parametrize("name", list(_tol_calls()))
def test_tol_outside_its_domain_rejected(name, tol):
    # regression: update_pinv let inf escape as numpy's ValueError and fell
    # back for nan and -1; solve, verify_penrose and is_hermitian returned a
    # verdict for all three.  An int beyond the float range is not finite:
    # pinv leaked numpy's OverflowError for it, and the other four accepted it
    shown = "inf" if tol == 10**400 else tol
    with pytest.raises(einalg.DomainError, match=f"tol must be finite and >= 0, got {shown}"):
        _tol_calls()[name](tol)


def test_every_public_tol_is_checked():
    # the two reports record a tol that their producer has already checked;
    # a new public tol joins the table above.  The errors take no tol, and
    # inspect finds no signature for them.
    takes_tol = {
        name
        for name in einalg.__all__
        if callable(obj := getattr(einalg, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and "tol" in inspect.signature(obj).parameters
    }
    assert takes_tol == set(_tol_calls()) | {"PenroseReport", "ConditionReport"}
