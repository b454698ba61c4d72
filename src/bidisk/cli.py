"""Command line front end.

Subcommands:

* ``norm``        squared norms in iso(a), aniso(a), iso(2a) per alpha
* ``opa``         one optimal-approximant solve as JSON
* ``scan``        distance decay CSV over an alpha x n grid
* ``zeros``       torus classification plus bidisk search as JSON
* ``classify``    full cyclicity report as JSON
* ``recurrence``  coefficient recurrence residual grid as CSV
* ``qsmooth``     quotient smoothness experiment as JSON

Exit codes: 0 success, 1 usage, 2 input that cannot be parsed or a file
that cannot be read or written, 3 numerical failure, 4 inconclusive
classification (the report is still written) or a request that does not fit
in memory.
All floating point output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
from typing import Optional, Sequence

from .approximant import BasisSpec, distance_scan, optimal_approximant
from .classify import corroborate, predict, product_rule
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    InconclusiveError,
    NumericalError,
    ParseError,
)
from .expr import parse_polynomial, to_expression
from .formatting import round_floats
from .poly import Poly2, poly2_from_json_dict, poly2_to_json_dict
from .prooflab import q_smoothness, recurrence_residuals
from .spaces import SpaceSpec, aniso, compare_norms, iso
from .zeroset import bidisk_zero_search, torus_zeros

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    t = t.replace("i", "j").replace("I", "j")
    try:
        return complex(t)
    except ValueError:
        raise ParseError(f"cannot read complex number from {text!r}") from None


def _load_poly(args) -> Poly2:
    if getattr(args, "poly", None) and getattr(args, "poly_json", None):
        raise _UsageError("give either --poly or --poly-json, not both")
    if getattr(args, "poly", None):
        return parse_polynomial(args.poly)
    if getattr(args, "poly_json", None):
        try:
            with open(args.poly_json, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {args.poly_json}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.poly_json}: {exc}") from None
        return poly2_from_json_dict(data)
    raise _UsageError("a polynomial is required (--poly or --poly-json)")


def _parse_alphas(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError:
            raise _UsageError(f"bad alpha value {part!r}") from None
    if not out:
        raise _UsageError("alpha list is empty")
    return out


def _single_alpha(args) -> float:
    alphas = _parse_alphas(args.alpha)
    if len(alphas) != 1:
        raise _UsageError("this subcommand takes a single alpha")
    return alphas[0]


@contextlib.contextmanager
def _output_file(path: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with _output_file(out) as fh:
            fh.write(text)
    else:
        # one write, flushed here, so that a reader that has gone raises
        # BrokenPipeError inside main rather than at interpreter exit
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(json.dumps(round_floats(obj), indent=2, sort_keys=True), out)


def _space(kind: str, alpha: float) -> SpaceSpec:
    return iso(alpha) if kind == "iso" else aniso(alpha)


def _basis(args) -> BasisSpec:
    family = args.family
    if family == "total":
        return BasisSpec.total(args.nmax)
    if family == "diagonal":
        return BasisSpec.diagonal(args.nmax)
    n2 = args.n2 if args.n2 is not None else args.nmax
    return BasisSpec.box(args.nmax, n2)


# ---------------------------------------------------------------- commands


def _cmd_norm(args) -> int:
    f = _load_poly(args)
    lines = []
    for alpha in _parse_alphas(args.alpha):
        t = compare_norms(f, alpha)
        lines.append(
            f"alpha={_fmt(alpha)} iso={_fmt(t.iso)} aniso={_fmt(t.aniso)} iso2x={_fmt(t.iso2x)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_opa(args) -> int:
    f = _load_poly(args)
    alpha = _single_alpha(args)
    space = _space(args.space, alpha)
    result = optimal_approximant(f, _basis(args), space)
    report = {
        "polynomial": poly2_to_json_dict(f),
        "space": {"kind": space.kind, "alpha": space.alpha},
        "basis": {
            "kind": result.basis_spec.kind,
            "n": result.basis_spec.n,
            "n2": result.basis_spec.n2,
        },
        "approximant": poly2_to_json_dict(result.p),
        "approximant_expr": to_expression(result.p),
        "residual": poly2_to_json_dict(result.residual),
        "distance_sq": result.distance_squared,
        "distance": result.distance,
        "method": "cholesky",
    }
    _emit_json(report, args.out)
    return 0


def _cmd_scan(args) -> int:
    f = _load_poly(args)
    alphas = sorted(_parse_alphas(args.alpha))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "n", "basis_size", "distance_sq", "distance"])
    for alpha in alphas:
        space = _space(args.space, alpha)
        for row in distance_scan(f, space, args.nmax, family=args.family):
            writer.writerow(
                [
                    _fmt(alpha),
                    row.n,
                    row.basis_size,
                    _fmt(row.distance_squared),
                    _fmt(row.distance),
                ]
            )
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_zeros(args) -> int:
    f = _load_poly(args)
    report: dict = {"polynomial": poly2_to_json_dict(f)}
    code = 0
    try:
        report["torus"] = torus_zeros(f).to_json_dict()
    except InconclusiveError as exc:
        report["torus"] = None
        report["inconclusive"] = str(exc)
        code = 4
    report["bidisk"] = bidisk_zero_search(f).to_json_dict()
    _emit_json(report, args.out)
    return code


def _cmd_classify(args) -> int:
    alpha = _single_alpha(args)

    if args.factors:
        exprs = [e.strip() for e in args.factors.split(";") if e.strip()]
        if not exprs:
            raise _UsageError("--factors needs at least one expression")
        factor_reports = []
        predictions = []
        for text in exprs:
            poly = parse_polynomial(text)
            bidisk = bidisk_zero_search(poly)
            try:
                torus = torus_zeros(poly)
            except InconclusiveError as exc:
                factor_reports.append(
                    {
                        "polynomial": poly2_to_json_dict(poly),
                        "inconclusive": str(exc),
                    }
                )
                _emit_json(
                    {"alpha": alpha, "factors": factor_reports, "predicted": None},
                    args.out,
                )
                return 4
            pred = predict(poly, alpha, torus, bidisk)
            predictions.append(pred)
            factor_reports.append(
                {
                    "polynomial": poly2_to_json_dict(poly),
                    "torus": torus.to_json_dict(),
                    "bidisk": bidisk.to_json_dict(),
                    "predicted": pred.verdict,
                    "reason": pred.reason,
                }
            )
        combined = product_rule(predictions)
        _emit_json(
            {
                "alpha": alpha,
                "factors": factor_reports,
                "predicted": combined.verdict,
                "reason": combined.reason,
            },
            args.out,
        )
        return 4 if combined.verdict == "not_applicable" else 0

    f = _load_poly(args)
    try:
        report = corroborate(f, alpha, n_max=args.nmax, family=args.family)
    except InconclusiveError as exc:
        _emit_json(
            {
                "polynomial": poly2_to_json_dict(f),
                "alpha": alpha,
                "inconclusive": str(exc),
            },
            args.out,
        )
        return 4
    _emit_json(report.to_json_dict(), args.out)
    return 4 if report.predicted.verdict == "not_applicable" else 0


def _cmd_recurrence(args) -> int:
    g = _load_poly(args)
    grid = recurrence_residuals(g, args.kmax, args.lmax)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "l", "residual_re", "residual_im"])
    for k, l, re, im in grid.rows():
        writer.writerow([k, l, _fmt(re), _fmt(im)])
    _emit(buf.getvalue(), args.out)
    return 0


def _parse_zero_list(text: str) -> list[tuple[complex, complex]]:
    zeros = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"each zero needs two components, got {chunk!r}")
        zeros.append((_parse_complex(parts[0]), _parse_complex(parts[1])))
    return zeros


def _cmd_qsmooth(args) -> int:
    p = _load_poly(args)
    zeros = _parse_zero_list(args.zeros) if args.zeros else []
    report = q_smoothness(p, zeros, args.exponent, grid_size=args.grid)
    if args.qhat_csv:
        with _output_file(args.qhat_csv) as fh:
            fh.write("k,l,abs_qhat\n")
            fh.writelines(f"{k},{l},{_fmt(mag)}\n" for k, l, mag in report.qhat_rows())
    _emit_json(report.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------- wiring


def _add_poly_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", "--poly", help="polynomial expression in z1, z2")
    p.add_argument("--poly-json", help="path to a polynomial JSON file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bidisk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("norm", help="squared norms in the three comparison spaces")
    _add_poly_args(p)
    p.add_argument("--alpha", required=True, help="single value or comma list")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("opa", help="solve one optimal approximant")
    _add_poly_args(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--nmax", type=int, required=True, help="basis degree bound")
    p.add_argument("--family", choices=["total", "box", "diagonal"], default="total")
    p.add_argument("--n2", type=int, help="second bound for the box family")
    p.add_argument("--space", choices=["iso", "aniso"], default="iso")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_opa)

    p = sub.add_parser("scan", help="distance decay CSV over alpha x n")
    _add_poly_args(p)
    p.add_argument("--alpha", required=True, help="single value or comma list")
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--family", choices=["total", "diagonal"], default="total")
    p.add_argument("--space", choices=["iso", "aniso"], default="iso")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("zeros", help="torus classification and bidisk search")
    _add_poly_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("classify", help="full cyclicity report")
    _add_poly_args(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--family", choices=["total", "diagonal"], default="total")
    p.add_argument(
        "--factors",
        help="semicolon-separated factor expressions; classify the product",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("recurrence", help="coefficient recurrence residual CSV")
    _add_poly_args(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("qsmooth", help="quotient smoothness experiment")
    _add_poly_args(p)
    p.add_argument(
        "--zeros",
        help="declared torus zeros, e.g. '1,1' or '1,1;-1,-1'",
    )
    p.add_argument("--exponent", type=int, required=True, help="numerator exponent N")
    p.add_argument("--grid", type=int, default=512, help="FFT grid size (power of two)")
    p.add_argument("--qhat-csv", help="also dump DFT magnitudes to this CSV")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_qsmooth)

    return parser


# argparse takes "-8" as a value but reads "-8,-2" as an unknown option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _glue_alpha(argv: Sequence[str]) -> list[str]:
    """argv with ``--alpha VALUE`` written ``--alpha=VALUE`` wherever VALUE
    starts like a negative number."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--alpha" and _NEGATIVE_VALUE.match(token):
            out[-1] = f"--alpha={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_alpha(sys.argv[1:] if argv is None else argv))
        if not getattr(args, "command", None):
            raise _UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DegenerateInputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader closed the pipe (`bidisk ... | head`): nothing is left to
        # report to, so end quietly; stdout goes to devnull, because the
        # interpreter flushes it once more at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
