"""The package's public surface: ``einalg.__all__`` names a fixed set of objects."""

import importlib.util
import inspect

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
        ("check_conditions", ["parts", "b", "tol"]),
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
    ],
)
def test_signature(name, params):
    assert list(inspect.signature(getattr(einalg, name)).parameters) == params


def test_low_rank_update_takes_order():
    # the benchmark workloads build their updates with an explicit order
    assert list(inspect.signature(einalg.LowRankUpdate).parameters) == ["u", "b", "v", "order"]
