"""The three benchmark workloads and the seeded generation of their op lists.

An op is one CLI invocation (``argv`` handed to ``asmpp.cli.main``) or one
public library call.  A pass runs a workload's op list once, in order.  The
workload seed only chooses values inside the argv; the program never sees it.

The workloads split the code by the ring the work runs in, so that an
optimisation in one layer shows on one workload and leaves the others alone:

* ``brute``: combinatorial objects (``asm``, ``nilp``, ``tsscpp``), both
  counted only (genfun, doubly-refined) and materialized (enumerate,
  bijections, mrr).
* ``symbolic``: polynomials and truncated series (``contour``,
  ``algebra.series``, ``algebra.poly``, Bareiss over ``MultiPoly``).
* ``sampled``: exact scalars (``Fraction``, ``CycloScalar``, Bareiss over
  scalar rings) at seeded random points, plus the ``verify`` process pool.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

WHY = {
    "brute": "asm/nilp/tsscpp enumeration, both counted only (genfun, "
             "doubly-refined) and materialized and serialized (enumerate, "
             "bijections, mrr)",
    "symbolic": "contour residues, truncated series and MultiPoly products "
                "and Bareiss over polynomials; no object is enumerated",
    "sampled": "Fraction/CycloScalar arithmetic and Bareiss over scalar "
               "rings at seeded random points, plus the verify process pool",
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or a library call ``module.func(*args)``.

    ``n`` is the size whose reference polynomial a genfun result must equal
    (None for ops that produce no polynomial).
    """

    argv: tuple = ()
    call: tuple = ()  # (module, function, args)
    n: int | None = None

    @property
    def label(self):
        if self.argv:
            return " ".join(self.argv)
        module, func, args = self.call
        return f"{module}.{func}{args!r}"


def _cli(text, n=None):
    return Op(argv=tuple(text.split()), n=n)


def seeded_values(seed):
    """The values a workload seed generates: the randomized suites' --seed,
    the rational --a vector of integral-I and the --j index of genfun nilp."""
    rng = Random(f"perfbench:{seed}")
    suite_seed = rng.randrange(1_000_000)
    avec = ",".join(
        str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(4)
    )
    j = rng.randint(1, 6)
    return suite_seed, avec, j


def build_ops(workload, seed):
    """The fixed op list of one pass of ``workload`` at ``seed``."""
    suite_seed, avec, j = seeded_values(seed)
    if workload == "brute":
        return [
            _cli("genfun asm-tilde --n 6", 6),
            _cli("genfun asm-reversed --n 6", 6),
            _cli(f"genfun nilp --n 6 --i 0 --j {j}", 6),
            _cli("verify doubly-refined --n 1..6"),
            _cli("verify bijections --n 1..5"),
            _cli("verify involutions --n 1..4"),
            _cli("verify mrr --n 1..4"),
            _cli("enumerate asm --n 6", 6),
            _cli("enumerate nilp --n 6", 6),
            _cli("enumerate tsscpp --n 5", 5),
        ]
    if workload == "symbolic":
        return [
            _cli("genfun integral-A --n 5", 5),
            _cli("genfun integral-U --n 5 --form raw", 5),
            _cli("genfun integral-U --n 5 --form after-u1", 5),
            # "=" keeps a leading minus sign from being read as an option
            _cli(f"genfun integral-I --n 5 --a={avec}", 5),
            _cli("genfun integral-I --n 5 --a y(1-y)", 5),
            _cli("genfun lgv --n 7 --weights t,s,1,1,1,1,1", 7),
            _cli("verify a-independence --n 1..5"),
            _cli("verify zeilid --n 1..4"),
            _cli("verify even-partitions --n 1..3"),
            # beyond the CLI cap of n = 5 for the integral routes
            Op(call=("contour", "integral_U", (6, "raw")), n=6),
            Op(call=("contour", "integral_A", (6,)), n=6),
        ]
    if workload == "sampled":
        s = f"--seed {suite_seed}"
        return [
            _cli(f"verify six-vertex --n 1..3 {s}"),
            _cli(f"verify recursion --n 2..4 {s}"),
            _cli(f"verify wheel --n 2..4 {s}"),
            _cli(f"verify zprime --n 1..3 {s}"),
            _cli(f"verify appendix-d --n 1..4 {s}"),
            _cli("verify dyck --n 1..5"),
            _cli(f"verify recursion --n 2..4 {s} --workers 2"),
        ]
    raise KeyError(workload)


def run_op(op):
    """Run one op in-process; returns (exit code, output text).

    Module attributes are looked up at call time, so an installed tracer's
    wrappers are the ones called.  A library call's result is serialized
    like the CLI's genfun report (coefficients and total only).
    """
    if op.argv:
        cli = importlib.import_module("asmpp.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        return rc, out.getvalue() + err.getvalue()
    module, func, args = op.call
    poly = getattr(importlib.import_module(f"asmpp.{module}"), func)(*args)
    payload = {"coefficients": poly.to_json_dict(), "total": poly.total()}
    return 0, json.dumps(payload, sort_keys=True, indent=2) + "\n"
