"""The package's public surface: ``einalg.__all__`` names a fixed set of objects."""

import importlib.util

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
