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
    3  numerical error (non-convergence, singular operand or capacitance)
    4  the mode's identity did not apply; the report's ``path`` says whether
       the six-condition identity or the direct fallback wrote the result
    5  system inconsistent; least-squares candidate was written

No command mutates its input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import metadata

import numpy as np

from . import sensitivity, tensorio, woodbury
from .errors import (
    DomainError,
    IndexOutOfRangeError,
    NumericalError,
    ShapeError,
)
from .inverses import inverse, pinv, verify_penrose
from .tensor import _relative, fro_norm, is_hermitian
from .woodbury import LowRankUpdate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONDITIONS_FAILED = 4
EXIT_INCONSISTENT = 5


def _version() -> str:
    try:
        return metadata.version("einalg")
    except metadata.PackageNotFoundError:
        return "0.1.0"


def _load(path):
    try:
        return tensorio.load_tensor(path)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        raise _InputError(f"{path}: {err}") from err


class _InputError(Exception):
    pass


def _format_float(x) -> str:
    return "%.17g" % x


def cmd_pinv(args) -> int:
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
    a = _load(args.base)
    u = _load(args.u)
    b = _load(args.b)
    v = _load(args.v)
    upd = LowRankUpdate(u=u, b=b, v=v, order=len(u.col_dims))

    if args.mode == "invertible":
        result = woodbury.smw_invertible(inverse(a), upd, inverse(b))
        tensorio.save_tensor(args.output, result)
        return EXIT_OK

    if args.mode == "hermitian":
        u_vs_vh = _relative((u - v.H).matrix, u.matrix)
        if not is_hermitian(a, tol=args.tol) or u_vs_vh > args.tol:
            raise ShapeError(
                "hermitian mode needs a Hermitian base tensor and u == v^H"
            )
    updated = woodbury.update_pinv(a, pinv(a), upd, tol=args.tol)
    report = updated.report
    applicable = report.applicable
    if args.mode == "orthogonal":
        # The orthogonal identity additionally needs the update to avoid the
        # base tensor's column spaces entirely.
        scale = max(1.0, fro_norm(u), fro_norm(v))
        x_norm = max(fro_norm(updated.parts.x1), fro_norm(updated.parts.x2))
        applicable = applicable and x_norm <= args.tol * scale
    tensorio.save_tensor(args.output, updated.s_pinv)
    report_path = args.report or (args.output + ".report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "residuals": {k: report.residuals[k] for k in sorted(report.residuals)},
                "applicable": applicable,
                "path": updated.path,
                "tol": report.tol,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return EXIT_OK if applicable else EXIT_CONDITIONS_FAILED


def cmd_solve(args) -> int:
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
    a = _load(args.a)
    d = _load(args.d)
    if args.alpha_steps < 1:
        raise DomainError("--alpha-steps must be >= 1")
    if args.alpha_steps == 1:
        alphas = [args.alpha_min]
    else:
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
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
                "" if row.measured_error is None else _format_float(row.measured_error),
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
                "residuals": list(report.residuals),
                "passed": report.passed,
                "tol": report.tol,
            }
        )
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einalg",
        description="Einstein-product tensor algebra: pseudoinverses, "
        "low-rank inverse updates, multilinear solving, sensitivity sweeps.",
    )
    parser.add_argument("--version", action="version", version=_version())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", help="Moore-Penrose pseudoinverse of a tensor file")
    p.add_argument("input", help="input tensor (JSON)")
    p.add_argument("--tol", type=float, default=1.0, help="rank-truncation multiplier")
    p.add_argument("--output", "-o", required=True, help="output tensor path")
    p.set_defaults(handler=cmd_pinv)

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
                   help="applicability tolerance")
    p.add_argument("--output", "-o", required=True, help="output tensor path")
    p.add_argument(
        "--report",
        default=None,
        help="condition-report path (default: OUTPUT.report.json; "
        "pseudoinverse modes only)",
    )
    p.set_defaults(handler=cmd_smw)

    p = sub.add_parser("solve", help="solve a multilinear system a * x = d")
    p.add_argument("a", help="coefficient tensor")
    p.add_argument("d", help="right-hand side tensor")
    p.add_argument("--tol", type=float, default=sensitivity.CONSISTENCY_TOL,
                   help="consistency tolerance")
    p.add_argument("--output", "-o", required=True, help="solution tensor path")
    p.set_defaults(handler=cmd_solve)

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
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="check the four pseudoinverse rules")
    p.add_argument("a", help="base tensor")
    p.add_argument("x", help="candidate pseudoinverse")
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as err:
        print(f"einalg: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ShapeError, IndexOutOfRangeError, DomainError) as err:
        print(f"einalg: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as err:
        print(f"einalg: numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"einalg: error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
