"""Correctness gate: decides, for every op execution, whether it failed.

An op fails when any of these is false:

* its exit code is 0;
* a ``verify`` report has ``"pass": true`` and ``"failures": 0``;
* a genfun result at size n has the coefficients of that n's reference
  polynomial (mirrored in y for ``asm-reversed``);
* every ``total``/``count`` equals the ASM count A_n;
* a ``--workers K`` report is byte-identical to the same op without it;
* its output's sha256 equals the digest recorded in ``reference.json`` for
  the same op, where one is recorded (all ops at the default seed 0, and the
  unseeded ops at every seed).

The reference polynomials for n = 5, 6, 7 are stored, not recomputed, so
the timed loop never runs a brute route as its own oracle.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial, prod
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def asm_count(n):
    """A_n = prod_{k<n} (3k+1)! / (n+k)!, computed here independently."""
    return prod(factorial(3 * k + 1) for k in range(n)) // prod(
        factorial(n + k) for k in range(n))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _mirror_y(n, coeffs):
    out = {}
    for key, c in coeffs.items():
        i, j = (int(v) for v in key.strip("()").split(","))
        out[f"({i},{n - 1 - j})"] = c
    return dict(sorted(out.items()))


def _without_workers(argv):
    argv = list(argv)
    if "--workers" not in argv:
        return None
    k = argv.index("--workers")
    return " ".join(argv[:k] + argv[k + 2:])


class Gate:
    def __init__(self, reference=None):
        if reference is None:
            reference = json.loads(REFERENCE_PATH.read_text())
        self.polys = {int(n): c for n, c in reference["polynomials"].items()}
        self.digests = reference["digests"]

    def check_pass(self, ops, results):
        """One failure reason (or None) per op of a pass; ``results`` holds
        an (exit code, output) pair per op, in the order the ops ran."""
        seen = {}
        return [self.check(op, rc, out, seen) for op, (rc, out) in zip(ops, results)]

    def check(self, op, rc, out, seen):
        """Failure reason for one op's output, or None.  ``seen`` maps the
        label of each op already run in this pass to its output digest;
        this op's digest is added to it."""
        sha = digest(out)
        seen[op.label] = sha
        if rc != 0:
            return f"exit code {rc}"
        base = _without_workers(op.argv)
        if base is not None and seen.get(base) != sha:
            return "report differs from the single-worker report"
        recorded = self.digests.get(op.label)
        if recorded is not None:
            # make_reference.py records only digests of outputs that passed
            # the report checks, so a match needs no further check.
            if recorded != sha:
                return "output digest differs from the recorded one"
            return None
        return self._check_report(op, out)

    def _check_report(self, op, out):
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not JSON"
        command = report.get("command") if op.argv else "genfun"
        if command == "verify":
            if report.get("pass") is not True or report.get("failures") != 0:
                return f"verify report: {report.get('failures')} failures"
            return None
        n = op.n
        if report.get("total", report.get("count")) != asm_count(n):
            return f"total/count is not A_{n} = {asm_count(n)}"
        if command == "enumerate":
            if len(report["objects"]) != report["count"]:
                return "object list length differs from count"
            return None
        want = self.polys[n]
        if op.argv[:2] == ("genfun", "asm-reversed"):
            want = _mirror_y(n, want)
        if report.get("coefficients") != want:
            return f"coefficients differ from the n = {n} reference polynomial"
        return None
