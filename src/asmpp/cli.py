"""Command-line surface.

    asmpp enumerate {asm,nilp,tsscpp} --n N [--format ...] [--out PATH]
    asmpp genfun ROUTE --n N [options]
    asmpp verify SUITE [--n A..B] [--seed S] [--samples K] [--workers K]

Exit codes: 0 = success / all checks pass, 1 = a check failed (the report
carries the first counterexample in full), 2 = usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import operator
import os
import sys
import tempfile
from fractions import Fraction

from .algebra.poly import MultiPoly
from .asm import asm_count_formula, enumerate_asms, genfun_doubly_refined
from .contour import a_profile_y1y, integral_A, integral_I, integral_U
from .genpoly import GenPoly
from .lgv import lgv_genfun
from .nilp import enumerate_nilps, genfun_U
from .tsscpp import enumerate_tsscpps
from .verify import SUITES, run_verify

ENUM_LIMITS = {"asm": 7, "nilp": 7, "tsscpp": 7}
GENFUN_LIMITS = {
    "asm-tilde": 12, "asm-reversed": 12, "nilp": 11, "lgv": 9,
    "integral-A": 12, "integral-U": 12, "integral-I": 7,
}


class UsageError(Exception):
    pass


class CountError(Exception):
    """The enumeration yielded other than A_n objects: exit 1."""


def _parse_n_range(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        n = int(text)
        return n, n
    except ValueError:
        raise UsageError(f"--n must be N or A..B with integers (got {text!r})")


def _write_report(out, fill):
    """Call fill on the text handle the report goes to, and return what it
    returns: stdout, or for --out a temporary file beside the resolved
    target, which replaces the target only once fill has returned, so a
    failed run leaves it as it was.  A target that exists but is no regular
    file (a pipe, a device) is written in place, as stdout is.  Every command
    computes its report inside fill, so an unwritable --out is reported
    before any work is done."""
    target = os.path.realpath(out) if out else None
    tmp = None
    try:
        if not out:
            result = fill(sys.stdout)
            sys.stdout.flush()
        elif os.path.exists(target) and not os.path.isfile(target):
            with open(target, "w", encoding="utf-8") as fh:
                result = fill(fh)
        else:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
            with open(fd, "w", encoding="utf-8") as fh:
                result = fill(fh)
            umask = os.umask(0o22)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # the mode open(out, "w") gives
            os.replace(tmp, target)
        return result
    except OSError as exc:
        if not out:  # Python flushes stdout again at exit: let that go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {out or '<stdout>'}: {exc.strerror}")
    finally:
        if tmp:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


# -- enumerate ----------------------------------------------------------------

@functools.cache
def _part_text(kind, fmt, part):
    """The text of one part of an enumerated object in fmt: a row of an ASM or
    of a TSSCPP's height array, or a bundle's path as (t, steps, extra),
    cached per process (a size n has at most C(2n, n) parts, 3,432 at n = 7).
    A json part is indented to its depth in the report by its line breaks:
    json.dumps escapes every newline inside a string."""
    if kind == "nilp":
        t, steps, extra = part
        if fmt == "json":
            return json.dumps({"steps": steps, "extra": extra}, sort_keys=True,
                              indent=2).replace("\n", "\n        ")
        if fmt == "csv":
            return f"{steps}:{extra}"
        return f"  path {t}: {steps or '(empty)'} extra={extra}"
    if fmt == "json":
        return json.dumps(part, sort_keys=True, indent=2).replace("\n", "\n      ")
    if fmt == "csv":
        return " ".join(map(str, part))
    return "  " + " ".join(f"{v:2d}" for v in part)


def _write_objects(kind, n, count, fmt, fh):
    """Write the enumerate report to fh one object at a time, each object
    joined from part texts laid out once per call.  The report's end is
    written only if count objects were enumerated, the count its head
    already carries; otherwise CountError is raised."""
    if kind == "nilp":
        objects = enumerate_nilps(n)
        parts = lambda p: zip(range(p.n), p.steps, p.extra)
    elif kind == "asm":
        objects, parts = enumerate_asms(n), operator.attrgetter("entries")
    else:
        objects, parts = enumerate_tsscpps(n), operator.attrgetter("heights")
    text = functools.partial(_part_text, kind, fmt)
    write = fh.write
    if fmt == "json":  # each object as json.dumps lays it out inside "objects"
        if kind == "nilp":
            opener, sep, closer = '{\n      "paths": [\n        ', ",\n        ", "\n      ]\n    }"
        else:
            opener, sep, closer = "[\n      ", ",\n      ", "\n    ]"
        head, end = json.dumps({"schema": "v1", "command": "enumerate", "kind": kind,
                                "n": n, "objects": [], "count": count},
                               sort_keys=True, indent=2).split('"objects": []')
        write(head + '"objects": [')
        emit = lambda idx, body: write(("," if idx else "") + "\n    " + opener + body + closer)
        end = "\n  ]" + end + "\n"
    elif fmt == "csv":
        sep, writer = "|", csv.writer(fh)
        writer.writerow(["index", kind])
        emit = lambda idx, body: writer.writerow((idx, body))
        end = f"# count,{count}\n"
    else:
        sep = "\n"
        emit = lambda idx, body: write(f"[{idx}]\n{body}\n")
        end = f"count: {count}\n"
    enumerated = 0
    for enumerated, obj in enumerate(objects, 1):
        emit(enumerated - 1, sep.join(map(text, parts(obj))))
    if enumerated != count:
        raise CountError(f"enumerated {enumerated} objects, expected A_{n} = {count}")
    write(end)


def cmd_enumerate(args):
    kind, n = args.kind, args.n
    limit = ENUM_LIMITS[kind]
    if not 1 <= n <= limit:
        raise UsageError(f"enumerate {kind} supports 1 <= n <= {limit} (got {n})")
    count = asm_count_formula(n)  # every kind numbers the size-n ASMs
    _write_report(args.out, functools.partial(_write_objects, kind, n, count, args.format))
    return 0


# -- genfun ---------------------------------------------------------------------

def _parse_weights(text, n):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n:
        raise UsageError(f"--weights needs exactly {n} entries")
    if "" in tokens:
        raise UsageError("--weights has an empty entry")
    values = [_number(t) for t in tokens]
    symbols = list(dict.fromkeys(t for t, v in zip(tokens, values) if v is None))
    if len(symbols) > 2:
        raise UsageError("at most two distinct symbolic weights are supported")
    for t in symbols:
        if not t.isidentifier():
            raise UsageError(f"weight {t!r} is neither a number nor a name")
    axis = dict(zip(symbols, ("x", "y")))
    weights = [MultiPoly.variable(("x", "y"), axis[t]) if v is None
               else MultiPoly.constant(("x", "y"), v)
               for t, v in zip(tokens, values)]
    return weights, symbols


def _number(token):
    """The rational value of a weight token, or None if it is a symbol; an
    integer weight stays an int: faster products."""
    try:
        value = Fraction(token)
    except ValueError:
        return None
    except ZeroDivisionError:
        raise UsageError(f"weight {token!r} divides by zero")
    return value.numerator if value.denominator == 1 else value


def cmd_genfun(args):
    route, n = args.route, args.n
    limit = GENFUN_LIMITS[route]
    if not 1 <= n <= limit:
        raise UsageError(f"genfun {route} supports 1 <= n <= {limit} (got {n})")
    if route == "nilp" and not (0 <= args.i <= n and 0 <= args.j <= n):
        raise UsageError(f"statistic indices must lie in [0, {n}]")
    if route == "integral-I":
        avec = _parse_avec(args.a, n)
    elif route == "lgv":
        weights, symbols = _parse_weights(args.weights or ",".join(["1"] * n), n)

    def fill(fh):
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
            poly = integral_I(n, avec)
        else:  # lgv
            result = lgv_genfun(n, weights)
            try:
                poly = GenPoly.from_poly(result)
            except ValueError as exc:
                raise UsageError(f"lgv {exc}; the weights must give integer counts")
            labels = (tuple(symbols) + labels[len(symbols):])[:2]
        matrix = poly.coefficient_matrix()
        if args.format == "json":
            fh.write(json.dumps({
                "schema": "v1", "command": "genfun", "route": route, "n": n,
                "variables": list(labels), "polynomial": str(poly),
                "coefficients": poly.to_json_dict(), "matrix": matrix,
                "total": poly.total(),
            }, sort_keys=True, indent=2) + "\n")
        elif args.format == "csv":
            width = len(matrix[0]) if matrix else 0  # a zero polynomial has no rows
            header = [f"{labels[0]}\\{labels[1]}"] + [str(j) for j in range(width)]
            csv.writer(fh).writerows([header] + [[i] + row for i, row in enumerate(matrix)])
        else:
            lines = [f"{route}  n={n}", str(poly), f"total = {poly.total()}", ""]
            for i, row in enumerate(matrix):
                lines.append(" ".join(f"{v:4d}" for v in row))
            fh.write("\n".join(lines) + "\n")

    _write_report(args.out, fill)
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
    n_range = _parse_n_range(args.n) if args.n else None

    def fill(fh):
        try:
            report = run_verify(suite, n_range=n_range, seed=args.seed,
                                samples=args.samples, workers=args.workers)
        except ValueError as exc:
            raise UsageError(str(exc))
        if args.format == "json":
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        elif args.format == "csv":
            rows = [["check", "n", "expected", "got", "pass"]]
            for c in report["checks"]:
                rows.append([c["check"], c["n"], c.get("expected", ""), c.get("got", ""),
                             c["pass"]])
                if not c["pass"] and "witness" in c:
                    rows.append(["# witness", json.dumps(c["witness"], sort_keys=True)])
            csv.writer(fh).writerows(rows)
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
            fh.write("\n".join(lines) + "\n")
        return report["pass"]

    return 0 if _write_report(args.out, fill) else 1


# -- entry ------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every
    call of `main`: building one costs more than most commands at small n,
    and its actions form reference cycles."""
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

    p = sub.add_parser("genfun", help="doubly refined generating polynomials")
    p.add_argument("route", choices=tuple(GENFUN_LIMITS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=0, help="first statistic index (nilp route)")
    p.add_argument("--j", type=int, default=1, help="second statistic index (nilp route)")
    p.add_argument("--form", choices=("raw", "after-u1"), default="raw")
    p.add_argument("--weights", help="comma list for the lgv route, e.g. t,s,1")
    p.add_argument("--a", help="interpolation entries for integral-I (or 'y(1-y)')")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(sorted(SUITES)))
    p.add_argument("--n", "--n-range", dest="n",
                   help="single n or range A..B (default: suite default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    common(p)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # looked up per call, so a command patched after the parser was built runs
    command = {"enumerate": cmd_enumerate, "genfun": cmd_genfun, "verify": cmd_verify}
    try:
        return command[args.command](args)
    except (UsageError, CountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
