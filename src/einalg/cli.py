"""Command-line front end.

Subcommands: ``pinv`` (pseudoinverse of a tensor file), ``smw`` (low-rank
inverse update in four modes), ``solve`` (multilinear system), ``sweep``
(normalized-error-bound grid to CSV), ``verify`` (four-rule pseudoinverse
check).  Tensor files use the JSON schema of :mod:`einalg.tensorio`.

Exit codes are exhaustive and disjoint:

    0  success
    1  verification failed: ``verify``, or ``pinv``'s own Penrose check
       (the pseudoinverse is still written)
    2  input error (parse, shape, domain)
    3  numerical error: an overflow, a failed LAPACK SVD, or a singular base
       in ``smw --mode invertible``
    4  the mode's identity did not apply; the report's ``path`` says whether
       the six-condition identity, the capacitance step or the direct
       fallback wrote the result
    5  system inconsistent; least-squares candidate was written

No command writes over its inputs: an output path (``-o``, ``--report``,
or the default ``OUTPUT.report.json``) that names an input file or the other
output is an input error (exit 2), and a command that exits 2 writes no file.

``einalg --version`` prints ``einalg.__version__``.  :func:`main` parses with
one parser per process, built by :func:`build_parser` on the first call, so
in-process callers pay for the argparse tree once; the ``cmd_*`` handler is
looked up on the module at each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, sensitivity, tensorio, woodbury
from .errors import (
    DomainError,
    IndexOutOfRangeError,
    NumericalError,
    ShapeError,
)
from .inverses import PENROSE_TOL, inverse, pinv, verify_penrose
from .tensor import _adjoint_deviation, is_hermitian
from .woodbury import LowRankUpdate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONDITIONS_FAILED = 4
EXIT_INCONSISTENT = 5


def _load(path):
    try:
        return tensorio.load_tensor(path)
    except (OSError, ValueError) as err:
        raise DomainError(f"{path}: {err}") from err


def _distinct_outputs(inputs, outputs) -> None:
    """Raise :class:`~einalg.errors.DomainError` when one of ``outputs``, a
    list of ``(flag, path)``, names the same file as one of ``inputs`` or an
    earlier output, before anything is read or written.  An output that
    exists is known by its device and inode, which a symlink or hard link
    shares; one that does not is no input, and is known by its absolute
    path, so a command whose outputs do not exist yet makes one ``stat``
    call per output."""
    seen = {}
    for flag, path in outputs:
        try:
            st = os.stat(path)
        except OSError:
            key = os.path.abspath(path)
        else:
            key = st.st_dev, st.st_ino
            for other in inputs:
                if os.path.samefile(other, path):
                    raise DomainError(f"{flag} {path} names the same file as the input {other}")
        if key in seen:
            raise DomainError(f"{flag} {path} names the same file as {seen[key]}")
        seen[key] = f"the {flag} output {path}"


def _format_float(x) -> str:
    return "%.17g" % x


def _json_residual(r: float) -> float | None:
    """A residual as strict JSON (RFC 8259 has no inf or nan): ``None``, which
    writes as ``null``, when it is not finite."""
    return r if math.isfinite(r) else None


def cmd_pinv(args) -> int:
    _distinct_outputs([args.input], [("-o", args.output)])
    a = _load(args.input)
    result = pinv(a, tol=args.tol)
    report = verify_penrose(a, result)
    print(
        "penrose residuals: " + " ".join(_format_float(r) for r in report.residuals),
        file=sys.stderr,
    )
    tensorio.save_tensor(args.output, result)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_smw(args) -> int:
    report_path = args.report or (args.output + ".report.json")
    _distinct_outputs(
        [args.base, args.u, args.b, args.v], [("-o", args.output), ("--report", report_path)]
    )
    a = _load(args.base)
    u = _load(args.u)
    b = _load(args.b)
    v = _load(args.v)
    upd = LowRankUpdate(u=u, b=b, v=v, order=len(u.col_dims))
    if args.mode == "hermitian":
        # u and v^H share a shape once the correction conforms to a square
        # base; a deviation beyond the float range is inf and fails the check
        upd._conform("update_pinv", a.shape)
        if not (is_hermitian(a, tol=args.tol) and _adjoint_deviation(u, v) <= args.tol):
            raise ShapeError(
                "hermitian mode needs a Hermitian base tensor and u == v^H"
            )
    # an invertible base's pseudoinverse is its inverse, bit for bit, and
    # inverse raises on a singular base; the base's a^+ is not bound here, so
    # it is not held through save_tensor
    updated = woodbury.update_pinv(
        a, (inverse if args.mode == "invertible" else pinv)(a), upd, tol=args.tol
    )
    result, report, path = updated.s_pinv, updated.report, updated.path
    applicable = report.applicable
    if args.mode == "orthogonal":
        # The orthogonal identity also needs x1 = x2 = 0; the split has
        # already made every part within its floor an exact zero.
        parts = updated.parts
        applicable = applicable and not (parts.x1.matrix.any() or parts.x2.matrix.any())
    tensorio.save_tensor(args.output, result)
    residuals = report.residuals
    try:
        fh = open(report_path, "w", encoding="utf-8")
    except OSError:
        os.remove(args.output)  # both files or neither
        raise
    with fh:
        fh.write(json.dumps(
            {
                "residuals": {k: _json_residual(residuals[k]) for k in sorted(residuals)},
                "applicable": applicable,
                "path": path,
                "tol": report.tol,
            },
            indent=2,
            allow_nan=False,
        ) + "\n")
    return EXIT_OK if applicable else EXIT_CONDITIONS_FAILED


def cmd_solve(args) -> int:
    _distinct_outputs([args.a, args.d], [("-o", args.output)])
    a = _load(args.a)
    d = _load(args.d)
    result = sensitivity.solve(a, d, tol=args.tol)
    tensorio.save_tensor(args.output, result.x)
    print(
        f"consistent: {str(result.consistent).lower()} "
        f"residual: {_format_float(result.consistency_residual)}"
    )
    return EXIT_OK if result.consistent else EXIT_INCONSISTENT


def cmd_sweep(args) -> int:
    _distinct_outputs([args.a, args.d], [("-o", args.output)])
    a = _load(args.a)
    d = _load(args.d)
    if args.alpha_steps < 1:
        raise DomainError("--alpha-steps must be >= 1")
    for flag, value in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    try:
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
    except (ValueError, MemoryError) as err:  # numpy cannot index or allocate the grid
        raise DomainError(f"--alpha-steps is too large: {err}") from None
    rows = sensitivity.sweep(a, d, args.eps_a, args.eps_d, alphas)
    # Rows come back ordered by (eps_a, alpha); pair them with the exact grid
    # values instead of re-deriving alpha from the stored norms.
    grid = [(e, al) for e in sorted(args.eps_a) for al in sorted(alphas)]
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write("eps_A,eps_D,alpha,norm_A,norm_A_pinv,bound,measured_error\n")
        for (_, alpha), row in zip(grid, rows):
            fields = [
                _format_float(row.eps_a),
                _format_float(row.eps_d),
                _format_float(alpha),
                _format_float(row.norm_a),
                _format_float(row.norm_a_pinv),
                _format_float(row.bound),
                "",  # sweep measures no error
            ]
            fh.write(",".join(fields) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    a = _load(args.a)
    x = _load(args.x)
    report = verify_penrose(a, x, tol=args.tol)
    print(
        json.dumps(
            {
                "residuals": [_json_residual(r) for r in report.residuals],
                "passed": report.passed,
                "tol": report.tol,
            },
            allow_nan=False,
        )
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einalg",
        description="Einstein-product tensor algebra: pseudoinverses, "
        "low-rank inverse updates, multilinear solving, sensitivity sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", help="Moore-Penrose pseudoinverse of a tensor file")
    p.add_argument("input", help="input tensor (JSON)")
    p.add_argument("--tol", type=float, default=1.0, help="rank-truncation multiplier")
    p.add_argument("--output", "-o", required=True, help="output tensor path")

    p = sub.add_parser("smw", help="low-rank inverse update of a base tensor")
    p.add_argument("base", help="base tensor (JSON)")
    p.add_argument("u", help="left update factor")
    p.add_argument("b", help="middle update factor (K-square)")
    p.add_argument("v", help="right update factor")
    p.add_argument(
        "--mode",
        choices=["invertible", "pinv", "orthogonal", "hermitian"],
        default="pinv",
        help="which identity to apply",
    )
    p.add_argument("--tol", type=float, default=woodbury.CONDITION_TOL,
                   help="applicability tolerance (default: %g)" % woodbury.CONDITION_TOL)
    p.add_argument("--output", "-o", required=True, help="output tensor path")
    p.add_argument(
        "--report",
        default=None,
        help="condition-report path (default: OUTPUT.report.json)",
    )

    p = sub.add_parser("solve", help="solve a multilinear system a * x = d")
    p.add_argument("a", help="coefficient tensor")
    p.add_argument("d", help="right-hand side tensor")
    p.add_argument("--tol", type=float, default=sensitivity.CONSISTENCY_TOL,
                   help="consistency tolerance")
    p.add_argument("--output", "-o", required=True, help="solution tensor path")

    p = sub.add_parser("sweep", help="normalized-error-bound grid to CSV")
    p.add_argument("a", help="coefficient tensor")
    p.add_argument("d", help="right-hand side tensor")
    p.add_argument("--eps-a", type=float, nargs="+", required=True,
                   help="coefficient perturbation levels")
    p.add_argument("--eps-d", type=float, required=True,
                   help="right-side perturbation level")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--output", "-o", required=True, help="output CSV path")

    p = sub.add_parser("verify", help="check the four pseudoinverse rules")
    p.add_argument("a", help="base tensor")
    p.add_argument("x", help="candidate pseudoinverse")
    p.add_argument("--tol", type=float, default=PENROSE_TOL, help="residual tolerance")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # The parser is a constant of the process: parse_args leaves it unchanged.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a replaced module attribute (tracing, tests) runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ShapeError, IndexOutOfRangeError, DomainError, OSError) as err:
        print(f"einalg: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as err:
        print(f"einalg: numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
