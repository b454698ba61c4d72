"""Command line front end.

Subcommands:

* ``norm``        squared norms in iso(a), aniso(a), iso(2a) per alpha
* ``opa``         one optimal-approximant solve as JSON
* ``scan``        distance decay CSV over an alpha x n grid
* ``zeros``       torus classification plus bidisk search as JSON
* ``classify``    full cyclicity report as JSON
* ``recurrence``  coefficient recurrence residual grid as CSV
* ``qsmooth``     quotient smoothness experiment as JSON

Each subcommand is a function ``(args, polys) -> (report, code)`` that
computes its report (text, or a dict written as JSON) and exit code; ``main``
reads the polynomials, calls it and writes the report to stdout or --out.
This module alone turns results into text: the numeric modules return
dataclasses, and the JSON shapes and CSV rows are written here.

Exit codes: 0 success, 1 usage (no polynomial, more than one of -p,
--poly-json and --factors, --n2 without --family box), 2 input that cannot
be parsed (malformed polynomial JSON too), a non-finite alpha or a file that
cannot be read or written, 3 numerical failure, 4 inconclusive
classification (the report is still written) or a request that does not fit
in memory.
All floating point output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .approximant import BasisSpec, distance_scan, optimal_approximant
from .classify import ClassificationReport, corroborate, predict, product_rule
from .errors import (
    DegenerateInputError,
    InconclusiveError,
    NumericalError,
    ParseError,
)
from .expr import parse_polynomial, to_expression
from .poly import Poly2, poly2_from_json_dict, poly2_to_json_dict
from .prooflab import q_smoothness, recurrence_residuals
from .spaces import SpaceSpec, compare_norms
from .zeroset import DELTA, BidiskZeroReport, TorusZeroClass, bidisk_zero_search, torus_zeros

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


def _load_polys(args) -> list[Poly2]:
    """The polynomials named by exactly one source: -p, --poly-json or
    classify's semicolon-separated --factors.  A source given an empty value
    counts as given."""
    poly, poly_json = args.poly is not None, args.poly_json is not None
    if poly and poly_json:
        raise _UsageError("give either --poly or --poly-json, not both")
    if args.factors is not None and (poly or poly_json):
        raise _UsageError("give either --factors or a polynomial, not both")
    if args.factors is not None:
        exprs = [e.strip() for e in args.factors.split(";") if e.strip()]
        if not exprs:
            raise _UsageError("--factors needs at least one expression")
        return [parse_polynomial(e) for e in exprs]
    if poly:
        return [parse_polynomial(args.poly)]
    if poly_json:
        try:
            with open(args.poly_json, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {args.poly_json}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.poly_json}: {exc}") from None
        return [poly2_from_json_dict(data)]
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
        if not np.isfinite(out[-1]):
            raise DegenerateInputError("alpha must be finite")
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


def _round_floats(obj):
    """obj with every float in it rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report, out: Optional[str]) -> None:
    """Write report, text or else JSON, with one final newline to out or stdout."""
    if not isinstance(report, str):
        report = json.dumps(_round_floats(report), indent=2, sort_keys=True)
    text = report + "\n"
    if out:
        with _output_file(out) as fh:
            fh.write(text)
    else:
        # one write, flushed here, so that a reader that has gone raises
        # BrokenPipeError inside main rather than at interpreter exit
        sys.stdout.write(text)
        sys.stdout.flush()


def _csv(header: str, rows) -> str:
    """CSV text of rows under header; no field ever needs quoting."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)])


def _re_im(*zs: complex) -> list[float]:
    """[re, im] of one complex number, [re1, im1, re2, im2] of a point."""
    return [x for z in zs for x in (z.real, z.imag)]


def _torus_json(torus: TorusZeroClass) -> dict:
    out: dict = {"torus": torus.kind}
    if torus.kind == "finite":
        out["points"] = [_re_im(*point) for point in torus.points]
    elif torus.kind == "infinite":
        out["witness"] = torus.witness
        if torus.witness == "proportional_reflection":
            out["lambda"] = _re_im(torus.witness_data)
        elif torus.witness == "univariate_circle_roots":
            out["variable"], roots = torus.witness_data
            out["roots"] = [_re_im(r) for r in roots]
        elif torus.witness == "line_factor":
            out["variable"], value = torus.witness_data
            out["value"] = _re_im(value)
    return out


def _bidisk_json(bidisk: BidiskZeroReport) -> dict:
    if bidisk.kind == "zero_found":
        point = _re_im(*bidisk.point)
        return {"bidisk": bidisk.kind, "point": point, "modulus": bidisk.min_modulus}
    return {
        "bidisk": bidisk.kind,
        "min_modulus": bidisk.min_modulus,
        "grid": {"delta": DELTA, "angles": bidisk.angles},
    }


def _zeros_json(f: Poly2, torus: TorusZeroClass | InconclusiveError, bidisk: BidiskZeroReport) -> dict:
    """f's zero-set report; a refused torus classification is null, with the
    refusal's reason under "inconclusive"."""
    report = {"polynomial": poly2_to_json_dict(f), "bidisk": _bidisk_json(bidisk)}
    if isinstance(torus, InconclusiveError):
        return {**report, "torus": None, "inconclusive": str(torus)}
    return {**report, "torus": _torus_json(torus)}


def _classify_json(result: ClassificationReport) -> dict:
    emp = result.empirical
    empirical = None if emp is None else {
        "label": emp.label,
        "limit_estimate": emp.limit_estimate,
        "fit_model": emp.fit_model,
        "fit_params": emp.fit_params,
        "fit_residual": emp.fit_residual,
    }
    return {
        **_zeros_json(result.p, result.torus, result.bidisk),
        "alpha": result.alpha,
        "predicted": result.predicted.verdict,
        "reason": result.predicted.reason,
        "empirical": empirical,
        "certificate": result.certificate,
        "consistent": result.consistent,
        "scan": [
            {"n": r.n, "basis_size": r.basis_size, "distance_sq": r.distance_squared, "distance": r.distance}
            for r in result.scan
        ],
    }


# ---------------------------------------------------------------- commands


def _cmd_norm(args, polys):
    lines = []
    for alpha in _parse_alphas(args.alpha):
        t = compare_norms(polys[0], alpha)
        lines.append(
            f"alpha={_fmt(alpha)} iso={_fmt(t.iso)} aniso={_fmt(t.aniso)} iso2x={_fmt(t.iso2x)}"
        )
    return "\n".join(lines), 0


def _cmd_opa(args, polys):
    f = polys[0]
    alpha = _single_alpha(args)
    box = args.family == "box"
    if args.n2 is not None and not box:
        raise _UsageError("--n2 needs --family box")
    n2 = (args.nmax if args.n2 is None else args.n2) if box else 0
    space = SpaceSpec(args.space, alpha)
    result = optimal_approximant(f, BasisSpec(args.family, args.nmax, n2), space)
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
    return report, 0


def _cmd_scan(args, polys):
    rows = []
    for alpha in sorted(_parse_alphas(args.alpha)):
        space = SpaceSpec(args.space, alpha)
        rows += [
            (_fmt(alpha), row.n, row.basis_size, _fmt(row.distance_squared), _fmt(row.distance))
            for row in distance_scan(polys[0], space, args.nmax, family=args.family)
        ]
    return _csv("alpha,n,basis_size,distance_sq,distance", rows), 0


def _torus_or_refusal(f: Poly2) -> TorusZeroClass | InconclusiveError:
    """f's torus classification, or the InconclusiveError that refused it."""
    try:
        return torus_zeros(f)
    except InconclusiveError as exc:
        return exc


def _cmd_zeros(args, polys):
    torus = _torus_or_refusal(polys[0])
    report = _zeros_json(polys[0], torus, bidisk_zero_search(polys[0]))
    return report, 4 if isinstance(torus, InconclusiveError) else 0


def _cmd_classify(args, polys):
    alpha = _single_alpha(args)
    if args.factors is None:
        f = polys[0]
        try:
            result = corroborate(f, alpha, n_max=args.nmax, family=args.family)
        except InconclusiveError as exc:
            report = {"polynomial": poly2_to_json_dict(f), "alpha": alpha, "inconclusive": str(exc)}
            return report, 4
        return _classify_json(result), 4 if result.predicted.verdict == "not_applicable" else 0

    reports, predictions = [], []
    for poly in polys:
        torus = _torus_or_refusal(poly)
        if isinstance(torus, InconclusiveError):
            # a refused factor is reported by name and reason, is not
            # searched, and ends the run
            reports.append({"polynomial": poly2_to_json_dict(poly), "inconclusive": str(torus)})
            return {"alpha": alpha, "factors": reports, "predicted": None}, 4
        bidisk = bidisk_zero_search(poly)
        pred = predict(poly, alpha, torus, bidisk)
        predictions.append(pred)
        reports.append({**_zeros_json(poly, torus, bidisk), "predicted": pred.verdict, "reason": pred.reason})
    rule = product_rule(predictions)
    report = {"alpha": alpha, "factors": reports, "predicted": rule.verdict, "reason": rule.reason}
    return report, 4 if rule.verdict == "not_applicable" else 0


def _cmd_recurrence(args, polys):
    grid = recurrence_residuals(polys[0], args.kmax, args.lmax)
    rows = ((k, l, _fmt(r.real), _fmt(r.imag)) for (k, l), r in np.ndenumerate(grid.residuals))
    return _csv("k,l,residual_re,residual_im", rows), 0


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


def _cmd_qsmooth(args, polys):
    zeros = _parse_zero_list(args.zeros) if args.zeros else []
    result = q_smoothness(polys[0], zeros, args.exponent, grid_size=args.grid)
    if args.qhat_csv:
        # |Q^(k, l)| at the signed frequencies 0, 1, ..., -1 of each axis
        n = result.grid_size
        freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int).tolist()
        with _output_file(args.qhat_csv) as fh:
            fh.write("k,l,abs_qhat\n")
            for k, mags in zip(freqs, result.qhat_abs):
                fh.writelines(f"{k},{l},{_fmt(mag)}\n" for l, mag in zip(freqs, mags.tolist()))
    report = {
        "polynomial": poly2_to_json_dict(result.p),
        "zeros": [_re_im(*z) for z in result.zeros],
        "N": result.n,
        "grid_size": result.grid_size,
        "neg_freq_energy_fraction": result.neg_freq_energy_fraction,
        "weighted_tail_ratio": result.weighted_tail_ratio,
        "reconstruction_error": result.reconstruction_error,
    }
    return report, 0


# ---------------------------------------------------------------- wiring


def _subcommand(sub, name: str, func, help: str, out_help: Optional[str] = None):
    """A subparser with the options every subcommand takes: the polynomial
    sources -p and --poly-json, and --out; only classify sets --factors."""
    p = sub.add_parser(name, help=help)
    p.add_argument("-p", "--poly", help="polynomial expression in z1, z2")
    p.add_argument("--poly-json", help="path to a polynomial JSON file")
    p.add_argument("--out", help=out_help)
    p.set_defaults(func=func, factors=None)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="bidisk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = _subcommand(
        sub, "norm", _cmd_norm, "squared norms in the three comparison spaces",
        out_help="write output to this path instead of stdout",
    )
    p.add_argument("--alpha", required=True, help="single value or comma list")

    p = _subcommand(sub, "opa", _cmd_opa, "solve one optimal approximant")
    p.add_argument("--alpha", required=True)
    p.add_argument("--nmax", type=int, required=True, help="basis degree bound")
    p.add_argument("--family", choices=["total", "box", "diagonal"], default="total")
    p.add_argument("--n2", type=int, help="second bound for the box family")
    p.add_argument("--space", choices=["iso", "aniso"], default="iso")

    p = _subcommand(sub, "scan", _cmd_scan, "distance decay CSV over alpha x n")
    p.add_argument("--alpha", required=True, help="single value or comma list")
    p.add_argument("--nmax", type=int, default=60)
    p.add_argument("--family", choices=["total", "diagonal"], default="total")
    p.add_argument("--space", choices=["iso", "aniso"], default="iso")

    _subcommand(sub, "zeros", _cmd_zeros, "torus classification and bidisk search")

    p = _subcommand(sub, "classify", _cmd_classify, "full cyclicity report")
    p.add_argument("--alpha", required=True)
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--family", choices=["total", "diagonal"], default="total")
    p.add_argument(
        "--factors",
        help="semicolon-separated factor expressions; classify the product from"
        " its factors' zero sets, with no distance scan (--nmax and --family unused)",
    )

    p = _subcommand(sub, "recurrence", _cmd_recurrence, "coefficient recurrence residual CSV")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)

    p = _subcommand(sub, "qsmooth", _cmd_qsmooth, "quotient smoothness experiment")
    p.add_argument(
        "--zeros",
        help="declared torus zeros, e.g. '1,1' or '1,1;-1,-1'",
    )
    p.add_argument("--exponent", type=int, required=True, help="numerator exponent N")
    p.add_argument("--grid", type=int, default=512, help="FFT grid size (power of two)")
    p.add_argument("--qhat-csv", help="also dump DFT magnitudes to this CSV")

    return parser


# argparse takes "-8" as a value but reads "-8,-2" or "-1,-1" as an unknown
# option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _glue_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with ``--alpha VALUE`` and ``--zeros VALUE`` written
    ``--alpha=VALUE`` and ``--zeros=VALUE`` wherever VALUE starts like a
    negative number."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--alpha", "--zeros") and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
        if not args.command:
            raise _UsageError("a subcommand is required (see --help)")
        report, code = args.func(args, _load_polys(args))
        _emit(report, args.out)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DegenerateInputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
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
