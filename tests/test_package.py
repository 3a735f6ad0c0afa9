"""The package's public surface: ``einalg.__all__`` names a fixed set of objects."""

import ast
import importlib.util
import inspect
import json
import pickle
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _overflow_raisers(node, where=None):
    """The enclosing function of each ``NumericalError(...)`` in ``node`` whose
    message holds the word "overflowed"."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _overflow_raisers(child, child.name)
            continue
        if (
            isinstance(child, ast.Call)
            and getattr(child.func, "id", getattr(child.func, "attr", None)) == "NumericalError"
            and any(
                isinstance(part, ast.Constant) and "overflowed" in str(part.value)
                for arg in child.args for part in ast.walk(arg)
            )
        ):
            yield where
        yield from _overflow_raisers(child, where)


def test_overflow_rule_has_one_owner():
    # a non-finite value computed from finite operands is an overflow, and
    # only tensor._finite (any value) and tensor._finite_norm (a tensor's
    # entries) build its NumericalError, so every message has one shape
    raisers = [
        (path.stem, where)
        for path in sorted(Path(einalg.__file__).parent.glob("*.py"))
        for where in _overflow_raisers(ast.parse(path.read_text()))
    ]
    assert sorted(raisers) == [("tensor", "_finite"), ("tensor", "_finite_norm")]


#: What an operand-shape verdict reads
_SHAPE_READS = {"shape", "row_dims", "col_dims", "is_square"}


def _reads_shape(expr, names):
    """Whether ``expr`` reads ``.shape``, ``.row_dims``, ``.col_dims`` or
    ``.is_square``, or one of the local ``names`` bound from such a read."""
    return any(
        isinstance(read, ast.Attribute) and read.attr in _SHAPE_READS
        or isinstance(read, ast.Name) and read.id in names
        for read in ast.walk(expr)
    )


def _shape_names(func):
    """The names ``func`` binds from a shape read: ``m, n = mat.shape`` binds
    ``m`` and ``n``."""
    return {
        name.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and _reads_shape(node.value, ())
        for target in node.targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }


def _shape_raisers(node, where=None, names=frozenset()):
    """The enclosing function of each ``raise ShapeError(...)`` in ``node``
    under an ``if`` whose test reads ``.shape``, ``.row_dims``, ``.col_dims``
    or ``.is_square``, directly or through a name the same function bound
    from one (:func:`_shape_names`)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _shape_raisers(child, child.name, _shape_names(child))
            continue
        if isinstance(child, ast.If) and _reads_shape(child.test, names):
            for raised in ast.walk(child):
                if (
                    isinstance(raised, ast.Raise)
                    and isinstance(raised.exc, ast.Call)
                    and getattr(raised.exc.func, "id", None) == "ShapeError"
                ):
                    yield where
        yield from _shape_raisers(child, where, names)


def test_conformance_rule_has_one_owner():
    # operands whose paired modes do not conform are refused by
    # shapes._conform alone, so every message reads "<stage>: <what> must be
    # <want>, got <got>".  What remains are readers of one value's own
    # structure: a shape with no mode, a matrix that does not fill its
    # shape, and a block display that is not 2+2 modes or does not fill them
    raisers = [
        (path.stem, where)
        for path in sorted(Path(einalg.__file__).parent.glob("*.py"))
        for where in _shape_raisers(ast.parse(path.read_text()))
        if (path.stem, where) != ("shapes", "_conform")
    ]
    assert sorted(raisers) == [
        ("shapes", "__post_init__"),
        ("tensor", "_hold"),
        ("tensorio", "tensor_from_block_display"),
        ("tensorio", "tensor_from_block_display"),
    ]


def test_conformance_scan_follows_local_names():
    # a hand-written check through a name bound from a shape read is seen
    source = """
def inv_matrix(mat):
    m, n = mat.shape
    if m != n:
        raise ShapeError("not square")

class LowRankUpdate:
    def __post_init__(self):
        k = self.u.col_dims
        if len(k) != self.order:
            raise ShapeError("order")

def unrelated(mat, k):
    if len(k) != 2:
        raise ShapeError("k")
"""
    assert sorted(_shape_raisers(ast.parse(source))) == ["__post_init__", "inv_matrix"]


#: The library's modules, parsed, by name
_LIBRARY = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(einalg.__file__).parent.glob("*.py"))}


def _dotted(expr):
    """``"np.linalg.svd"`` for the expression ``np.linalg.svd``, or ``None``
    for anything but a chain of names and attributes."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        head = _dotted(expr.value)
        return head and f"{head}.{expr.attr}"
    return None


def _callers(name, node, where=None):
    """The owner of each call in ``node`` of a function whose dotted name
    ends in ``name``: the enclosing function, or the module-level name the
    call's value is assigned to."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _callers(name, child, child.name)
            continue
        owner = where
        if where is None and isinstance(child, ast.Assign):
            owner = getattr(child.targets[0], "id", None)
        if isinstance(child, ast.Call) and f".{_dotted(child.func)}".endswith(f".{name}"):
            yield owner
        yield from _callers(name, child, owner)


@pytest.mark.parametrize("name, owners", [
    # the kernel's one LAPACK call, read by svd and by the one rank decision
    ("linalg.svd", [("matkernel", "_lapack_svd")]),
    ("_lapack_svd", [("matkernel", "_cut"), ("matkernel", "svd")]),
    # one warning guard for the library, and no module sets numpy's global
    # error state in its place
    ("errstate", [("tensor", "_quiet_overflow")]),
    ("seterr", []),
    ("seterrcall", []),
])
def test_kernel_rule_has_one_owner(name, owners):
    # every pseudoinverse, inverse and rank count of the package reads
    # matkernel._cut, so no second path can cut or assemble on its own
    found = [(stem, where) for stem, tree in _LIBRARY.items() for where in _callers(name, tree)]
    assert sorted(found) == owners


def test_guard_ignores_every_event():
    # the one np.errstate call is the guard's, and it leaves no category of
    # floating-point event to the caller's error state
    (guard,) = [
        node.value
        for node in _LIBRARY["tensor"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_quiet_overflow"
    ]
    assert _dotted(guard.func) == "np.errstate" and not guard.args
    assert [(keyword.arg, ast.literal_eval(keyword.value)) for keyword in guard.keywords] == [("all", "ignore")]


def _guard_entries(node, where=None):
    """The enclosing function of each ``with`` in ``node`` that enters
    ``_quiet_overflow``, by name or attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _guard_entries(child, child.name)
            continue
        if isinstance(child, (ast.With, ast.AsyncWith)) and any(
            f".{_dotted(item.context_expr)}".endswith("._quiet_overflow") for item in child.items
        ):
            yield where
        yield from _guard_entries(child, where)


def test_guard_is_only_a_decorator():
    # _quiet_overflow is one shared np.errstate: only its decorator form
    # keeps a token per call, and a with on it fails when nested or threaded
    found = [(stem, where) for stem, tree in _LIBRARY.items() for where in _guard_entries(tree)]
    assert found == []


def test_guard_scan_sees_every_with():
    source = """
def pinv(a):
    with _quiet_overflow:
        pass

class Tensor:
    def add(self, b):
        with open(b) as fh, tensor._quiet_overflow:
            pass

with _quiet_overflow:
    pass

@_quiet_overflow
def guarded(a):
    with np.errstate(over="ignore"):
        pass
"""
    assert list(_guard_entries(ast.parse(source))) == ["pinv", "add", None]


def _private_definitions(tree):
    """The private functions, classes and methods, and the private
    module-level constants, that ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_no_dead_private_helper():
    # a private name the library itself never reads, by name or attribute,
    # is left over from a simplification; a docstring naming it is no reader
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in _LIBRARY.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }
    private = [
        (stem, name)
        for stem, tree in _LIBRARY.items()
        for name in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private
    assert [(stem, name) for stem, name in private if name not in read] == []


def _parameters(func):
    """The names of every parameter of a function or lambda node."""
    args = func.args
    extra = (arg for arg in (args.vararg, args.kwarg) if arg is not None)
    return [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, *extra)]


def _passes_on(func):
    """Whether ``func`` is undecorated and its body, past its docstring,
    only returns a call, indexed or not, whose arguments are exactly
    ``func``'s parameters.  A decorator (``functools.cache`` on a
    constant's builder) makes the function more than its call."""
    body = func.body[ast.get_docstring(func) is not None:]
    if func.decorator_list or len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value.value if isinstance(body[0].value, ast.Subscript) else body[0].value
    if not isinstance(call, ast.Call):
        return False
    args = [arg.value if isinstance(arg, ast.Starred) else arg for arg in call.args]
    args += [keyword.value for keyword in call.keywords]
    names = sorted(arg.id for arg in args if isinstance(arg, ast.Name))
    return len(names) == len(args) and names == sorted(_parameters(func))


def test_no_pass_through_helper():
    # a private function that only hands its own parameters on to one call
    # is a second name for that call, and its callers can make the call
    assert _passes_on(ast.parse(
        'def _p(stack, tol=1.0, stage=None):\n    """doc"""\n    return _cut(stack, tol, stage=stage)[0]'
    ).body[0])
    found = [
        (stem, node.name)
        for stem, tree in _LIBRARY.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and _passes_on(node)
    ]
    assert found == []


def test_no_ignored_parameter():
    # a parameter that a function, method or lambda of the library never
    # reads is one the code ignores; a nested function reading it counts
    found = [
        (stem, getattr(node, "name", "<lambda>"), name)
        for stem, tree in _LIBRARY.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for name in set(_parameters(node)) - {
            child.id
            for part in (node.body if isinstance(node.body, list) else [node.body])
            for child in ast.walk(part)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
    ]
    assert found == []


def _tensor(rows, cols, entries):
    return einalg.EinsteinTensor((rows, cols), entries)


def _column(*entries):
    return _tensor((len(entries),), (1,), np.array(entries)[:, None])


def _rank_one(u, b, v):
    """The update ``u b v`` of the 2-vectors ``u``, ``v`` and the scalar ``b``."""
    return einalg.LowRankUpdate(_column(*u), _tensor((1,), (1,), [[b]]), _column(*v).H, 1)


#: ``I_2``, its own inverse: a split against it has no null-space part, so
#: the capacitance step runs
_I2 = einalg.identity((2,))
#: ``diag(1, 0)``, its own pseudoinverse: a part along ``e2`` is null space
_D = _tensor((2,), (2,), np.diag([1.0, 0.0]))


def _swept(alpha):
    a = _tensor((2,), (2,), np.diag([2.0, 1.0]))
    return lambda: einalg.sweep(a, _column(1.0, 1.0), [0.1], 0.1, [alpha])


#: One call per overflow check, from finite inputs, and the start of its
#: message, "<stage> overflowed: <what> is <value>" (tensor._finite)
OVERFLOWS = {
    "trace": (
        lambda: einalg.trace(_tensor((2,), (2,), np.diag([1e308, 1e308]))),
        "trace overflowed: the result is (inf+0j)",
    ),
    "inner": (
        lambda: einalg.inner(_column(1e200), _column(1e200)),
        "inner overflowed: the result is (inf+0j)",
    ),
    # sigma_max of 1e308 (1 1; 1 1) is 2e308: alone the SVD names itself,
    # and in the split's stack of the two Grams and b the split
    "sigma_max": (
        lambda: einalg.pinv(_tensor((2,), (2,), np.full((2, 2), 1e308))),
        "SVD of a 2 x 2 matrix overflowed: sigma_max is not finite",
    ),
    "sigma_max-split": (
        lambda: einalg.decompose_update(
            _D, _D, einalg.LowRankUpdate(_I2, _tensor((2,), (2,), np.full((2, 2), 1e308)), _I2, 1)
        ),
        "decompose_update overflowed: sigma_max is not finite",
    ),
    # v a^+ u = 1e400
    "capacitance": (
        lambda: einalg.update_pinv(_I2, _I2, _rank_one((1e200, 0.0), 1.0, (1e200, 0.0))),
        "update_pinv overflowed: the capacitance tensor's norm is inf",
    ),
    "capacitance-smw_invertible": (
        lambda: einalg.smw_invertible(_I2, _rank_one((1e200, 0.0), 1.0, (1e200, 0.0))),
        "smw_invertible overflowed: the capacitance tensor's norm is inf",
    ),
    # C = 2, and C^-1 b (v a^+) = 5e299 (1e-300, 1e300)
    "capacitance-factor": (
        lambda: einalg.update_pinv(_I2, _I2, _rank_one((1.0, 0.0), 1e300, (1e-300, 1e300))),
        "update_pinv overflowed: the capacitance factor is not finite",
    ),
    # y1 = u = 1e200 e2
    "gram-y1": (
        lambda: einalg.update_pinv(_D, _D, _rank_one((0.0, 1e200), 1.0, (0.0, 1.0))),
        "decompose_update overflowed: the Gram tensor y1^H y1 is not finite",
    ),
    # y1 = e2 has a unit Gram, and y2 = v^H = 1e200 e2
    "gram-y2": (
        lambda: einalg.update_pinv(_D, _D, _rank_one((0.0, 1.0), 1.0, (0.0, 1e200))),
        "decompose_update overflowed: the Gram tensor y2^H y2 is not finite",
    ),
    # e2 = 0 and e1^H y1 = 4e400: condition 3.1 reads 0 * inf
    "condition": (
        lambda: einalg.check_conditions(
            einalg.SplitParts(*[
                _tensor((4,), (1,), np.full((4, 1), 1e200 if name in ("y1", "e1") else 0.0))
                for name in ("x1", "y1", "x2", "y2", "e1", "e2")
            ]),
            _tensor((1,), (1,), [[1.0]]),
        ),
        "check_conditions overflowed: condition 3.1 residual is nan",
    ),
    # b^+ = 1 / 5e-324
    "b-pinv": (
        lambda: einalg.update_pinv(_D, _D, _rank_one((0.0, 1.0), 5e-324, (0.0, 1.0))),
        "update_pinv overflowed: the pseudoinverse of b is not finite",
    ),
    # x = a^+ d is about 1e12, but a x passes the float range before it
    # cancels (to inf or nan, as the order of BLAS's sums falls)
    "solve-residual": (
        lambda: einalg.solve(
            _tensor((2,), (2,), 1e300 * np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]])), _column(1e300, 0.0)
        ),
        "solve overflowed: the residual a x - d relative to max(1, |d|) is ",
    ),
    "norm_bound": (
        lambda: einalg.norm_bound(1e103, 1e-103, einalg.PerturbationSpec(0.1, 0.1)),
        "norm_bound overflowed: the bound is inf",
    ),
    # x = a^+ d = (1e310, 1e300)
    "measure_error-x": (
        lambda: einalg.measure_error(
            1e-300 * _I2, _column(1e10, 1.0), _rank_one((0.0, 0.0), 1.0, (0.0, 0.0)), _column(0.0, 0.0)
        ),
        "measure_error overflowed: the norm of the solution x = a^+ d is inf",
    ),
    # y - x = a^+ delta_d = 1e309 e1
    "measure_error-y": (
        lambda: einalg.measure_error(
            _tensor((2,), (2,), np.diag([1e-300, 0.0])), _column(1.0, 1.0),
            _rank_one((0.0, 1.0), 1.0, (0.0, 1.0)), _column(1e9, 0.0),
        ),
        "measure_error overflowed: the measured error |y - x| / |x| is inf",
    ),
    # x = a^+ d = 1e-310 e1 and y - x = a^+ delta_d = 0, but |delta_d| / |d|
    # is 1e320
    "measure_error-eps_d": (
        lambda: einalg.measure_error(
            _D, _column(1e-310, 0.0), _rank_one((0.0, 0.0), 1.0, (0.0, 0.0)), _column(0.0, 1e10)
        ),
        "measure_error overflowed: eps_d = |delta_d| / |d| is inf",
    ),
    # y1 = u = 1e-150 e2, so |e1| = 1e150, over |a| = 1e-160
    "measure_error-eps_a": (
        lambda: einalg.measure_error(
            _tensor((2,), (2,), np.diag([1e-160, 0.0])), _column(1e-160, 0.0),
            _rank_one((0.0, 1e-150), 1.0, (0.0, 1.0)), _column(0.0, 0.0),
        ),
        "measure_error overflowed: eps_a = max(|x1|, |x2|, |e1|, |e2|) / |a| is inf",
    ),
    # finite entries whose norms pass the float range: |a^+| = 2e308, |a| = 2e308
    "measure_error-norm_a_pinv": (
        lambda: einalg.measure_error(
            1e-308 * einalg.identity((4,)), _column(1e-308, 0.0, 0.0, 0.0),
            _rank_one((1e-160, 0.0, 0.0, 0.0), 1.0, (1e-160, 0.0, 0.0, 0.0)), _column(0.0, 0.0, 0.0, 0.0),
        ),
        "measure_error overflowed: the norm |a^+| is inf",
    ),
    "measure_error-norm_a": (
        lambda: einalg.measure_error(
            1e308 * einalg.identity((4,)), _column(1e308, 0.0, 0.0, 0.0),
            _rank_one((1e-160, 0.0, 0.0, 0.0), 1.0, (1e-160, 0.0, 0.0, 0.0)), _column(0.0, 0.0, 0.0, 0.0),
        ),
        "measure_error overflowed: the norm |a| is inf",
    ),
    "sweep-alpha-a": (_swept(1e308), "sweep overflowed: alpha |a| at alpha = 1e+308 is inf"),
    "sweep-a-pinv": (_swept(1e-310), "sweep overflowed: |a^+| / alpha at alpha = 1e-310 is inf"),
    # each check runs once, at the alpha where its value is largest: here
    # both alphas overflow, and the message names the larger
    "sweep-alpha-a-largest": (
        lambda: einalg.sweep(_I2, _column(1.0, 1.0), [0.1], 0.1, [1.5e308, 1.3e308]),
        "sweep overflowed: alpha |a| at alpha = 1.5e+308 is inf",
    ),
}


@pytest.mark.parametrize("call, message", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflow_names_its_stage(call, message):
    with pytest.raises(einalg.NumericalError) as exc:
        call()
    assert str(exc.value).startswith(message)


def _through_file(write, read):
    """``read(path)`` after ``write(path)``, ``path`` a file in a new
    temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        write(path)
        return read(path)


#: The scale of the contract's operands, and tensors at it: entries 1e600
#: apart, whose norm's rescale underflows, and bases whose rank floor does
_S = 1e-300
_WIDE = _column(_S, 1e300)
_TINY = _tensor((2,), (2,), np.diag([_S, 0.1 * _S]))
_TINY_PINV = einalg.pinv(_TINY)
_SD = _S * _D
_SD_PINV = einalg.pinv(_SD)
_SI = _S * _I2
#: s diag(1, 0) + e2 s e2^H: b = s on a null-space part, taking the identity
_NULL = _rank_one((0.0, 1.0), _S, (0.0, 1.0))
_NULL_PARTS = einalg.decompose_update(_SD, _SD_PINV, _NULL)
#: a unit-scale update whose correction, 1e-310 e1 e1^H, is subnormal
_SUBNORMAL = _rank_one((_S, 0.0), 1.0, (1e-10, 0.0))

#: The floating-point contract: one call per public callable but the error
#: classes, at a scale where its arithmetic underflows (the integer and
#: record ones have no float arithmetic, but a row all the same), that
#: returns.  A fallback update runs the guarded apply_update inside
#: update_pinv's guard, and inside measure_error's too, and "-fallback",
#: "-identity" and "-capacitance" name the path an update takes
GUARDED = {
    "PairedShape": lambda: einalg.PairedShape((2,), (2,)),
    "phi_index": lambda: einalg.phi_index((2, 3), (2, 3)),
    "phi_inverse": lambda: einalg.phi_inverse(6, (2, 3)),
    "EinsteinTensor": lambda: _column(_S, 1e300),
    "EinsteinTensor.H": lambda: _WIDE.H,
    "EinsteinTensor-divide": lambda: _column(1e-10, 1.0) / 1e300,
    "zeros": lambda: einalg.zeros(((2,), (2,))),
    "identity": lambda: einalg.identity((2,)),
    "add": lambda: einalg.add(_WIDE, _WIDE),
    "scale": lambda: einalg.scale(_column(1e-10, 1.0), _S),
    "einstein_product": lambda: einalg.einstein_product(_column(1e-200, 1.0), _column(1e-200, 1.0).H),
    "conj_transpose": lambda: einalg.conj_transpose(_WIDE),
    "kronecker": lambda: einalg.kronecker(_column(1e-200, 1.0), _column(1e-200, 1.0)),
    "trace": lambda: einalg.trace(_TINY),
    "inner": lambda: einalg.inner(_column(1e-200, 1.0), _column(1e-200, 1.0)),
    "fro_norm": lambda: einalg.fro_norm(_WIDE),
    "is_hermitian": lambda: einalg.is_hermitian(_tensor((2,), (2,), [[0.0, _S], [0.0, 1e300]])),
    "unfold": lambda: einalg.unfold(_WIDE),
    "fold": lambda: einalg.fold(_WIDE.matrix, ((2,), (1,))),
    "unfold_rank": lambda: einalg.unfold_rank(_TINY),
    "full_row_rank": lambda: einalg.full_row_rank(_TINY),
    "full_column_rank": lambda: einalg.full_column_rank(_TINY),
    "is_invertible": lambda: einalg.is_invertible(_TINY),
    "Svd": lambda: einalg.Svd(np.eye(2), np.diag(_TINY.matrix).real, np.eye(2)).rank,
    "svd": lambda: einalg.svd(_TINY.matrix),
    "pinv_matrix": lambda: einalg.pinv_matrix(_TINY.matrix),
    "inv_matrix": lambda: einalg.inv_matrix(_TINY.matrix),
    "numerical_rank": lambda: einalg.numerical_rank(_TINY.matrix),
    "PenroseReport": lambda: einalg.PenroseReport((1e-320,) * 4, 1e-10).passed,
    "inverse": lambda: einalg.inverse(_TINY),
    "pinv": lambda: einalg.pinv(_TINY),
    "verify_penrose": lambda: einalg.verify_penrose(_TINY, _TINY_PINV),
    "LowRankUpdate": lambda: _rank_one((_S, 0.0), _S, (_S, 0.0)),
    "SplitParts": lambda: einalg.SplitParts(*[_WIDE] * 6),
    "ConditionReport": lambda: einalg.ConditionReport({"C": 1e-320}, 1e-8).applicable,
    "UpdatedPinv.parts": lambda: einalg.update_pinv(_SD, _SD_PINV, _NULL).parts,
    "apply_update": lambda: einalg.apply_update(_I2, _SUBNORMAL),
    "smw_invertible": lambda: einalg.smw_invertible(_I2, _SUBNORMAL),
    "decompose_update": lambda: einalg.decompose_update(_SD, _SD_PINV, _NULL),
    "check_conditions": lambda: einalg.check_conditions(_NULL_PARTS, _NULL.b),
    "smw_pinv": lambda: einalg.smw_pinv(_SD_PINV, _NULL_PARTS, einalg.pinv(_NULL.b)),
    "smw_pinv_orthogonal": lambda: einalg.smw_pinv_orthogonal(
        _SD_PINV, _NULL_PARTS.e1, _NULL_PARTS.e2, einalg.pinv(_NULL.b)
    ),
    "smw_pinv_hermitian": lambda: einalg.smw_pinv_hermitian(
        _SD_PINV, _NULL_PARTS.x1, _NULL_PARTS.e1, einalg.pinv(_NULL.b)
    ),
    "update_pinv-fallback": lambda: einalg.update_pinv(_SD, _SD_PINV, _rank_one((_S, 0.0), 1.0, (0.0, 1.0))),
    "update_pinv-identity": lambda: einalg.update_pinv(_SD, _SD_PINV, _NULL),
    "update_pinv-capacitance": lambda: einalg.update_pinv(_I2, _I2, _SUBNORMAL),
    "SolveResult": lambda: einalg.SolveResult(_WIDE, True, 1e-320),
    "PerturbationSpec": lambda: einalg.PerturbationSpec(_S, _S),
    "BoundReport": lambda: einalg.BoundReport(_S, 1e300, _S, _S),
    "solve": lambda: einalg.solve(_TINY, _column(_S, _S)),
    "norm_bound": lambda: einalg.norm_bound(_S, 1e300, einalg.PerturbationSpec(_S, _S)),
    # C = 1 - (1 / s) s e1^H (s I)^+ s e1 is singular, so the update falls back
    "measure_error-fallback": lambda: einalg.measure_error(
        _SI, _column(_S, _S), _rank_one((_S, 0.0), -1 / _S, (_S, 0.0)), _column(0.1 * _S, 0.0)
    ),
    "sweep": lambda: einalg.sweep(_TINY, _column(_S, _S), [_S], _S, [0.5, 1.0]),
    "load_tensor": lambda: _through_file(
        lambda path: path.write_text(json.dumps(einalg.tensor_to_dict(_WIDE))), einalg.load_tensor
    ),
    "save_tensor": lambda: _through_file(lambda path: einalg.save_tensor(path, _WIDE), Path.read_text),
    "tensor_to_dict": lambda: einalg.tensor_to_dict(_WIDE),
    "tensor_from_dict": lambda: einalg.tensor_from_dict(einalg.tensor_to_dict(_WIDE)),
    "tensor_from_block_display": lambda: einalg.tensor_from_block_display(
        [[_S, 1e300], [0.0, 1.0]], (1, 2), (2, 1)
    ),
}

#: A numpy error state unlike both the default and the guard's own: every
#: event raises
_STATE = {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}


def test_guarded_updates_take_their_path():
    for path in ("fallback", "identity", "capacitance"):
        assert GUARDED[f"update_pinv-{path}"]().path == path


@pytest.mark.parametrize(
    "call, error",
    [
        *((call, None) for call in GUARDED.values()),
        *((call, einalg.NumericalError) for call, _ in OVERFLOWS.values()),
    ],
    ids=[*GUARDED, *(f"{name}-raises" for name in OVERFLOWS)],
)
def test_guard_restores_the_callers_error_state(call, error):
    # every guarded call, nested ones included, hands numpy's error state
    # back as it found it and lets no warning out; before numpy 2.0, a
    # guarded call nested in another left every event ignored
    with np.errstate(**_STATE), warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert np.geterr() == _STATE


#: Every contract row, by id: GUARDED's, which return, and OVERFLOWS', which
#: raise NumericalError
_CONTRACT = {**GUARDED, **{f"{name}-raises": call for name, (call, _) in OVERFLOWS.items()}}

#: numpy's default error state
_DEFAULT = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}


def _outcome(call, **state):
    """What ``call()`` gives under numpy's error ``state``, with every warning
    an error: the pickle of its result, or the type and message of its error."""
    with np.errstate(**state), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return pickle.dumps(call())
        except (einalg.EinalgError, ArithmeticError, Warning) as err:
            return type(err), str(err)


@pytest.mark.parametrize("call", _CONTRACT.values(), ids=_CONTRACT)
def test_error_state_changes_no_outcome(call):
    # numpy's error state is no input of the library: by default, with every
    # event raised, and with every event warned, a call gives the same
    # result bit for bit, or the same einalg error and message
    outcome = _outcome(call, **_DEFAULT)
    assert isinstance(outcome, bytes) or issubclass(outcome[0], einalg.EinalgError), outcome
    assert _outcome(call, all="raise") == outcome
    assert _outcome(call, all="warn") == outcome


def test_every_public_callable_has_a_contract_row():
    # a new public function or class adds a GUARDED row, keyed by its name
    # before any "-" or "."; the error classes compute nothing
    public = {
        name
        for name in einalg.__all__
        if callable(obj := getattr(einalg, name)) and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert {re.split(r"[-.]", key)[0] for key in GUARDED} == public


def _drawn(seed, n, k, kind, e):
    """A seeded complex n x n base ``a`` of rank n - 1, ``d``, ``delta_d`` and
    an update of K = ``k`` columns, ``kind`` ``"generic"``, ``"column"``
    (``u`` and ``v^H`` in ``a``'s column spaces) or ``"null"`` (orthogonal to
    them).  Every tensor is scaled by ``2**e`` but ``b``, by ``2**-e``, so
    the update keeps its size relative to ``a``."""
    rng = np.random.default_rng(seed)

    def rand(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    a = rand(n, n - 1) @ rand(n - 1, n)
    u, v = rand(n, k), rand(k, n)
    if kind == "column":
        u, v = a @ u, v @ a
    elif kind == "null":
        a_pinv = np.linalg.pinv(a)
        u, v = u - a @ (a_pinv @ u), v - (v @ a_pinv) @ a

    def scaled(mat, f=2.0**e):
        return _tensor((len(mat),), (len(mat[0]),), f * mat)

    upd = einalg.LowRankUpdate(scaled(u), scaled(rand(k, k), 2.0**-e), scaled(v), 1)
    return scaled(a), scaled(rand(n, 1)), upd, scaled(0.1 * rand(n, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 2),
    st.sampled_from(["generic", "column", "null"]), st.integers(-1000, 1000),
)
@example(0, 2, 1, "null", -1000)
def test_no_scale_makes_the_error_state_an_input(seed, n, k, kind, e):
    a, d, upd, delta_d = _drawn(seed, n, k, kind, e)
    for call in (
        lambda: einalg.pinv(a),
        lambda: einalg.update_pinv(a, einalg.pinv(a), upd),
        lambda: einalg.measure_error(a, d, upd, delta_d),
    ):
        assert _outcome(call, all="raise") == _outcome(call, **_DEFAULT)


def test_numpy_floor_has_one_value():
    # the package needs numpy 2.0, from which its guard nests, and CI
    # installs that floor, so the declared floor is the tested one
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert [dep for dep in project["dependencies"] if dep.startswith("numpy")] == ["numpy>=2.0"]
    assert [dep for extra in project["optional-dependencies"].values() for dep in extra if "numpy" in dep] == []
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    installs = [line for line in workflow if "pip install" in line]
    assert len(installs) == 1 and re.findall(r'numpy[^"\s]*', installs[0]) == ["numpy>=2.0"]


def _mismatches():
    """One call per shapes._conform call site, with operands whose modes do
    not conform, and the start of its message, "<stage>: <what> must be "."""
    wide = _tensor((2,), (3,), np.ones((2, 3)))
    col, col3 = _column(1.0, 0.0), _column(1.0, 0.0, 0.0)
    upd = _rank_one((1.0, 0.0), 1.0, (0.0, 1.0))
    parts = einalg.decompose_update(_D, _D, upd)
    one = _tensor((1,), (1,), [[1.0]])
    return {
        "add": (lambda: einalg.add(_I2, wide), "add: the shape of b must be "),
        "einstein_product": (
            lambda: einalg.einstein_product(wide, wide), "einstein_product: the row modes of b must be "
        ),
        "trace": (lambda: einalg.trace(wide), "trace: the column modes must be "),
        "inner": (lambda: einalg.inner(_I2, wide), "inner: the shape of b must be "),
        "is_hermitian": (lambda: einalg.is_hermitian(wide), "is_hermitian: the column modes must be "),
        "is_invertible": (lambda: einalg.is_invertible(wide), "is_invertible: the column modes must be "),
        "inverse": (lambda: einalg.inverse(wide), "inverse: the column modes must be "),
        "verify_penrose": (lambda: einalg.verify_penrose(wide, wide), "verify_penrose: the shape of x must be "),
        "inv_matrix": (lambda: einalg.inv_matrix(np.ones((2, 3))), "inv_matrix: the number of columns must be "),
        "LowRankUpdate-order": (
            lambda: einalg.LowRankUpdate(col, one, col.H, 2),
            "LowRankUpdate: the number of column modes of u must be ",
        ),
        "LowRankUpdate-b": (
            lambda: einalg.LowRankUpdate(col, _I2, col.H, 1), "LowRankUpdate: the shape of b must be "
        ),
        "LowRankUpdate-v": (
            lambda: einalg.LowRankUpdate(col, one, _I2, 1), "LowRankUpdate: the row modes of v must be "
        ),
        "SplitParts": (
            lambda: einalg.SplitParts(parts.x1, parts.y1, parts.x2, parts.y2, parts.e1, col3),
            "SplitParts: the shape of e2 must be ",
        ),
        "apply_update": (lambda: einalg.apply_update(wide, upd), "apply_update: the shape of u b v must be "),
        "smw_invertible-square": (
            lambda: einalg.smw_invertible(wide, upd), "smw_invertible: the column modes of a_inv must be "
        ),
        "smw_invertible-update": (
            lambda: einalg.smw_invertible(einalg.identity((3,)), upd), "smw_invertible: the shape of u b v must be "
        ),
        "decompose_update-a_pinv": (
            lambda: einalg.decompose_update(_I2, wide, upd), "decompose_update: the shape of a_pinv must be "
        ),
        "decompose_update-update": (
            lambda: einalg.decompose_update(wide, wide.H, upd), "decompose_update: the shape of u b v must be "
        ),
        "update_pinv-a_pinv": (
            lambda: einalg.update_pinv(_I2, wide, upd), "update_pinv: the shape of a_pinv must be "
        ),
        "update_pinv-update": (
            lambda: einalg.update_pinv(wide, wide.H, upd), "update_pinv: the shape of u b v must be "
        ),
        "check_conditions": (
            lambda: einalg.check_conditions(parts, _I2), "check_conditions: the shape of b must be "
        ),
        "smw_pinv-b_pinv": (lambda: einalg.smw_pinv(_D, parts, _I2), "smw_pinv: the shape of b_pinv must be "),
        "smw_pinv-a_pinv": (lambda: einalg.smw_pinv(wide, parts, one), "smw_pinv: the shape of a_pinv must be "),
        "smw_pinv_orthogonal": (
            lambda: einalg.smw_pinv_orthogonal(wide, parts.e1, parts.e2, one),
            "smw_pinv_orthogonal: the shape of a_pinv must be ",
        ),
        "smw_pinv_hermitian": (
            lambda: einalg.smw_pinv_hermitian(_D, parts.x1, parts.e1, _I2),
            "smw_pinv_hermitian: the shape of b_pinv must be ",
        ),
        "solve": (lambda: einalg.solve(_I2, col3), "solve: the row modes of d must be "),
        "measure_error-delta_d": (
            lambda: einalg.measure_error(_I2, col, upd, col.H), "measure_error: the shape of delta_d must be "
        ),
        "measure_error-d": (
            lambda: einalg.measure_error(_I2, col3, upd, col3), "measure_error: the row modes of d must be "
        ),
        "measure_error-update": (
            lambda: einalg.measure_error(_tensor((3,), (3,), np.eye(3)), col3, upd, col3),
            "measure_error: the shape of u b v must be ",
        ),
        "sweep": (lambda: einalg.sweep(_I2, col3, [0.1], 0.1, [1.0]), "sweep: the row modes of d must be "),
    }


@pytest.mark.parametrize("name", list(_mismatches()))
def test_mismatch_names_its_stage(name):
    # every operand-shape verdict is shapes._conform's, and names the public
    # function or constructor that refused the operands
    call, message = _mismatches()[name]
    with pytest.raises(einalg.ShapeError) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_mismatch_shows_shapes_modes_and_counts():
    # a shape as (rows | cols), modes as a tuple and a count as a number
    wide = _tensor((2,), (3,), np.ones((2, 3)))
    for call, message in [
        (lambda: einalg.add(_I2, wide), "add: the shape of b must be (2 | 2), got (2 | 3)"),
        (lambda: einalg.trace(wide), "trace: the column modes must be (2,), got (3,)"),
        (lambda: einalg.inv_matrix(np.ones((2, 3))), "inv_matrix: the number of columns must be 2, got 3"),
    ]:
        with pytest.raises(einalg.ShapeError, match=f"^{re.escape(message)}$"):
            call()


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
    "tol",
    [
        float("nan"),
        float("inf"),
        -1.0,
        pytest.param(10**400, id="10**400"),
        pytest.param("x", id="'x'"),
        pytest.param("0.5", id="'0.5'"),
        pytest.param(None, id="None"),
        pytest.param(object(), id="object()"),
        pytest.param(1j, id="1j"),
    ],
)
@pytest.mark.parametrize("name", list(_tol_calls()))
def test_tol_outside_its_domain_rejected(name, tol):
    # regression: update_pinv let inf escape as numpy's ValueError and fell
    # back for nan and -1; solve, verify_penrose and is_hermitian returned a
    # verdict for all three.  An int beyond the float range is not finite:
    # pinv leaked numpy's OverflowError for it, and the other four accepted it.
    # What is not a real number leaked Python's or numpy's TypeError or
    # ValueError, and verify_penrose returned a report holding the str "0.5"
    if type(tol) in (int, float):
        message = f"tol must be finite and >= 0, got {'inf' if tol == 10**400 else tol}"
    else:
        message = f"^tol must be a real number, got {re.escape(repr(tol))}$"
    with pytest.raises(einalg.DomainError, match=message):
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


#: Ints small enough to stay cheap as dims, and ints far past any size (up to
#: 5001 digits, beyond Python's 4300-digit limit for int to str)
_INTS = st.integers(-4, 4) | st.builds(
    lambda sign, exponent: sign * 10**exponent, st.sampled_from([-1, 1]), st.integers(19, 5000)
)
#: What a caller might pass where a number, an array or a shape is read:
#: text, None, numbers, other objects, and ragged nestings of them
_JUNK = st.recursive(
    st.text(max_size=3) | st.binary(max_size=3) | st.none() | st.booleans() | _INTS
    | st.floats() | st.complex_numbers() | st.builds(object),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=8,
)


def _readers():
    """Public calls on one caller-given value, one per scalar, entry, shape,
    grid or operand reader."""
    t = einalg.identity((2,))
    spec = einalg.PerturbationSpec(0.1, 0.1)
    return [
        lambda x: einalg.scale(t, x),
        lambda x: t / x,
        lambda x: einalg.pinv(t, x),
        lambda x: einalg.PerturbationSpec(x, 0.0),
        lambda x: einalg.norm_bound(x, 1.0, spec),
        lambda x: einalg.sweep(t, t, [x], 0.1, [1.0]),
        lambda x: einalg.sweep(t, t, x, 0.1, [1.0]),
        lambda x: einalg.sweep(t, t, [0.1], 0.1, x),
        lambda x: einalg.norm_bound(1.0, 1.0, x),
        lambda x: einalg.LowRankUpdate(x, t, t, 1),
        lambda x: einalg.EinsteinTensor(((2,), (2,)), x),
        lambda x: einalg.svd(x),
        lambda x: einalg.tensor_from_block_display(x, (2, 2), (1, 1)),
        lambda x: einalg.PairedShape(x, (1,)),
        lambda x: einalg.zeros(x),
        lambda x: einalg.identity(x),
        lambda x: einalg.phi_index(x, (2, 2)),
        lambda x: einalg.phi_inverse(x, (2, 2)),
        lambda x: t.entry(x, (1,)),
    ]


@given(_JUNK)
def test_junk_gives_a_value_or_an_einalg_error(x):
    # regression: text, None, objects and ragged lists leaked Python's or
    # numpy's TypeError or ValueError from the readers of scalars, entries
    # and shapes, and a 5000-digit int raised ValueError from a message
    for call in _readers():
        try:
            call(x)
        except einalg.EinalgError:
            pass
