"""Command-line surface.

    asmpp enumerate {asm,nilp,tsscpp} --n N [--format ...] [--out PATH]
    asmpp genfun ROUTE --n N [options]
    asmpp verify SUITE [--n A..B] [--seed S] [--samples K] [--workers K]

Exit codes: 0 = success / all checks pass, 1 = a check failed (the report
carries the first counterexample in full), 2 = usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .algebra.poly import MultiPoly
from .asm import enumerate_asms, genfun_doubly_refined
from .contour import a_profile_y1y, integral_A, integral_I, integral_U
from .genpoly import GenPoly
from .lgv import lgv_genfun
from .nilp import enumerate_nilps, genfun_U
from .tsscpp import enumerate_tsscpps
from .verify import SUITES, run_verify

ENUM_LIMITS = {"asm": 7, "nilp": 7, "tsscpp": 7}
GENFUN_LIMITS = {
    "asm-tilde": 12, "asm-reversed": 12, "nilp": 11, "lgv": 9,
    "integral-A": 7, "integral-U": 7, "integral-I": 7,
}


class UsageError(Exception):
    pass


def _parse_n_range(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        n = int(text)
        return n, n
    except ValueError:
        raise UsageError(f"--n must be N or A..B with integers (got {text!r})")


def _emit(text, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _json_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- enumerate ----------------------------------------------------------------

def cmd_enumerate(args):
    kind, n = args.kind, args.n
    limit = ENUM_LIMITS[kind]
    if not 1 <= n <= limit:
        raise UsageError(f"enumerate {kind} supports 1 <= n <= {limit} (got {n})")
    if kind == "asm":
        objects = [a.to_rows() for a in enumerate_asms(n)]
    elif kind == "tsscpp":
        objects = [t.to_rows() for t in enumerate_tsscpps(n)]
    else:
        objects = [p.to_json_dict() for p in enumerate_nilps(n)]
    count = len(objects)
    if args.format == "json":
        _emit(_json_dumps({"schema": "v1", "command": "enumerate", "kind": kind,
                           "n": n, "objects": objects, "count": count}), args.out)
    elif args.format == "csv":
        rows = []
        for idx, obj in enumerate(objects):
            if kind == "nilp":
                cell = "|".join(f"{p['steps']}:{p['extra']}" for p in obj["paths"])
            else:
                cell = "|".join(" ".join(str(v) for v in row) for row in obj)
            rows.append([idx, cell])
        _emit(_csv_text(["index", kind], rows) + f"# count,{count}\n", args.out)
    else:
        lines = []
        for idx, obj in enumerate(objects):
            lines.append(f"[{idx}]")
            if kind == "nilp":
                for t, p in enumerate(obj["paths"]):
                    lines.append(f"  path {t}: {p['steps'] or '(empty)'} extra={p['extra']}")
            else:
                for row in obj:
                    lines.append("  " + " ".join(f"{v:2d}" for v in row))
        lines.append(f"count: {count}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- genfun ---------------------------------------------------------------------

def _parse_weights(text, n):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n:
        raise UsageError(f"--weights needs exactly {n} entries")
    symbols = []
    for t in tokens:
        if not _is_number(t) and t not in symbols:
            symbols.append(t)
    if len(symbols) > 2:
        raise UsageError("at most two distinct symbolic weights are supported")
    axis = {s: v for s, v in zip(symbols, ("x", "y"))}
    weights = []
    for t in tokens:
        if _is_number(t):
            value = Fraction(t)  # an integer weight stays an int: faster products
            if value.denominator == 1:
                value = value.numerator
            weights.append(MultiPoly.constant(("x", "y"), value))
        else:
            weights.append(MultiPoly.variable(("x", "y"), axis[t]))
    return weights, symbols


def _is_number(token):
    try:
        Fraction(token)
        return True
    except ValueError:
        return False
    except ZeroDivisionError:
        raise UsageError(f"weight {token!r} divides by zero")


def cmd_genfun(args):
    route, n = args.route, args.n
    limit = GENFUN_LIMITS[route]
    if not 1 <= n <= limit:
        raise UsageError(f"genfun {route} supports 1 <= n <= {limit} (got {n})")
    if route == "nilp" and not (0 <= args.i <= n and 0 <= args.j <= n):
        raise UsageError(f"statistic indices must lie in [0, {n}]")
    labels = ("x", "y")
    if route == "asm-tilde":
        poly = genfun_doubly_refined(n, "tilde")
    elif route == "asm-reversed":
        poly = genfun_doubly_refined(n, "reversed")
    elif route == "nilp":
        poly = genfun_U(n, args.i, args.j)
    elif route == "integral-A":
        poly = integral_A(n)
    elif route == "integral-U":
        poly = integral_U(n, args.form)
    elif route == "integral-I":
        poly = integral_I(n, _parse_avec(args.a, n))
    else:  # lgv
        weights, symbols = _parse_weights(args.weights or ",".join(["1"] * n), n)
        result = lgv_genfun(n, weights)
        try:
            poly = GenPoly.from_poly(result)
        except ValueError as exc:
            raise UsageError(f"lgv {exc}; the weights must give integer counts")
        labels = tuple(symbols) + ("x", "y")[len(symbols):]
        labels = labels[:2]
    matrix = poly.coefficient_matrix()
    if args.format == "json":
        _emit(_json_dumps({
            "schema": "v1", "command": "genfun", "route": route, "n": n,
            "variables": list(labels), "polynomial": str(poly),
            "coefficients": poly.to_json_dict(), "matrix": matrix,
            "total": poly.total(),
        }), args.out)
    elif args.format == "csv":
        header = [f"{labels[0]}\\{labels[1]}"] + [str(j) for j in range(len(matrix[0]))]
        rows = [[i] + row for i, row in enumerate(matrix)]
        _emit(_csv_text(header, rows), args.out)
    else:
        lines = [f"{route}  n={n}", str(poly), f"total = {poly.total()}", ""]
        for i, row in enumerate(matrix):
            lines.append(" ".join(f"{v:4d}" for v in row))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_avec(text, n):
    if text is None:
        return [Fraction(0)] * (n - 1)
    if text.strip() == "y(1-y)":
        return [a_profile_y1y()] * (n - 1)
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n - 1:
        raise UsageError(f"--a needs {n - 1} entries (or the single token 'y(1-y)')")
    try:
        return [Fraction(t) for t in tokens]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--a entries must be rationals (got {text!r})")


# -- verify ----------------------------------------------------------------------

def cmd_verify(args):
    suite = args.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    n_range = _parse_n_range(args.n) if args.n else None
    try:
        report = run_verify(suite, n_range=n_range, seed=args.seed,
                            samples=args.samples, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        _emit(_json_dumps(report), args.out)
    elif args.format == "csv":
        rows = []
        for c in report["checks"]:
            rows.append([c["check"], c["n"], c.get("expected", ""), c.get("got", ""),
                         c["pass"]])
            if not c["pass"] and "witness" in c:
                rows.append(["# witness", json.dumps(c["witness"], sort_keys=True)])
        _emit(_csv_text(["check", "n", "expected", "got", "pass"], rows), args.out)
    else:
        lines = [f"suite {suite}  n={report['n_range'][0]}..{report['n_range'][1]}"
                 f"  seed={report['seed']}"]
        for c in report["checks"]:
            mark = "ok  " if c["pass"] else "FAIL"
            lines.append(f"  [{mark}] {c['check']} n={c['n']}")
            if not c["pass"]:
                lines.append(f"         expected {c['expected']}")
                lines.append(f"         got      {c['got']}")
                if "witness" in c:
                    lines.append(f"         witness  {json.dumps(c['witness'], sort_keys=True)}")
        lines.append(f"{report['total'] - report['failures']}/{report['total']} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report["pass"] else 1


# -- entry ------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="asmpp",
        description="Exact enumeration and identity verification for "
                    "alternating sign matrices and their plane-partition images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--out", help="write output to PATH instead of stdout")

    p = sub.add_parser("enumerate", help="stream combinatorial objects")
    p.add_argument("kind", choices=("asm", "nilp", "tsscpp"))
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("genfun", help="doubly refined generating polynomials")
    p.add_argument("route", choices=tuple(GENFUN_LIMITS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=0, help="first statistic index (nilp route)")
    p.add_argument("--j", type=int, default=1, help="second statistic index (nilp route)")
    p.add_argument("--form", choices=("raw", "after-u1"), default="raw")
    p.add_argument("--weights", help="comma list for the lgv route, e.g. t,s,1")
    p.add_argument("--a", help="interpolation entries for integral-I (or 'y(1-y)')")
    common(p)
    p.set_defaults(fn=cmd_genfun)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(sorted(SUITES)))
    p.add_argument("--n", "--n-range", dest="n",
                   help="single n or range A..B (default: suite default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
