"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions and methods of the ``asmpp``
modules with wrappers and ``uninstall()`` puts the originals back; nothing
under ``src/`` is changed.  Modules copy references (``from .asm import
enumerate_asms`` in ``cli``, ``verify`` and ``sixvertex``; ``determinant`` in
``lgv``, ``schur`` and ``antisym``), so every ``asmpp.*`` attribute that *is*
the original object gets the wrapper, not only the one in its home module.

Three kinds of wrapper:

* ``span``: one span per call (id, name, start, end, busy, parent, op).
* ``gen``: for generators; busy time is the time spent inside ``next()``,
  and every yielded item counts as an object.
* ``count``: hot arithmetic, counted only, so that tracing stays cheap.

A layer's self time is the busy time of its spans minus the busy time of
their direct child spans.  Spans inside ``--workers`` pool children are not
captured: the children run the wrappers but their records stay there.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

WORKER_NOTE = ("spans and counts inside --workers pool children are not "
               "captured; their time shows as verify.self_s")


# An observer is called as observe(counts, span name, call args, result).

def _terms_out(counts, name, args, result):
    if result is not NotImplemented:
        counts[f"{name}.terms_out"] += len(result.terms)


def _matrix_rows(args):
    m = args[0]
    return getattr(m, "rows", m)  # a SquareMatrix or a list of rows


def _det_name(args):
    """Span name of a determinant, by the ring of its entries."""
    from asmpp.algebra.cyclo import CycloScalar
    from asmpp.algebra.poly import MultiPoly

    entries = [e for row in _matrix_rows(args) for e in row]
    if any(isinstance(e, MultiPoly) for e in entries):
        return "matrix.det.poly"
    if any(isinstance(e, CycloScalar) for e in entries):
        return "matrix.det.cyclo"
    return "matrix.det.fraction"


def _det_observe(counts, name, args, result):
    counts[f"{name}.dim_sum"] += len(_matrix_rows(args))


def _stage_observe(counts, name, args, result):
    terms_in = len(args[0].terms)
    counts["contour.residue_stages"] += 1
    counts["contour.stage_terms_in"] += terms_in
    counts["contour.stage_terms_max"] = max(counts["contour.stage_terms_max"], terms_in)


def _sequences_observe(counts, name, args, result):
    counts["lgv.endpoint_sequences"] += len(result)


def _antisym_ok(counts, name, args, result):
    counts["antisym.ok"] += 1


def _checks_observe(counts, name, args, result):
    counts["verify.checks"] += result["total"]


@dataclass(frozen=True)
class Hook:
    module: str          # home module, relative to asmpp
    attr: str            # "func" or "Class.method"
    kind: str            # "span", "gen" or "count"
    name: str | Callable = ""
    observe: Callable | None = None


def _h(module, attr, kind="span", name=None, observe=None):
    layer = module.rsplit(".", 1)[-1]
    short = attr.split(".")[-1].strip("_")
    return Hook(module, attr, kind, name or f"{layer}.{short}", observe)


HOOKS = [
    _h("cli", "main"),
    _h("verify", "run_verify", observe=_checks_observe),
    _h("asm", "enumerate_asms", "gen"),
    _h("asm", "genfun_doubly_refined"),
    _h("nilp", "enumerate_nilps", "gen"),
    _h("nilp", "genfun_U"),
    _h("nilp", "involution_g", "count"),
    _h("nilp", "involution_h", "count"),
    _h("tsscpp", "nilp_to_tsscpp"),
    _h("tsscpp", "from_triangle"),
    _h("tsscpp", "tsscpp_to_nilp"),
    _h("tsscpp", "mrr_u_statistic", "count"),
    _h("genpoly", "GenPoly.add_term", "count"),
    _h("contour", "integral_A"),
    _h("contour", "integral_U"),
    _h("contour", "integral_I"),
    _h("contour", "zeilid_check"),
    _h("contour", "even_partition_sum_check"),
    _h("contour", "homogeneous_limit_check"),
    _h("contour", "iterated_residue"),
    _h("algebra.series", "residue_at_zero", observe=_stage_observe),
    _h("algebra.series", "geometric_mul", observe=_terms_out),
    _h("algebra.series", "TruncatedSeries.mul_poly", observe=_terms_out),
    _h("algebra.poly", "MultiPoly.__mul__", observe=_terms_out),
    _h("algebra.poly", "MultiPoly.exact_div"),
    _h("lgv", "lgv_genfun"),
    _h("lgv", "lgv_genfun_xy"),
    _h("lgv", "endpoint_sequences", observe=_sequences_observe),
    _h("algebra.matrix", "determinant", name=_det_name, observe=_det_observe),
    _h("algebra.cyclo", "CycloScalar.__mul__", "count"),
    _h("algebra.cyclo", "CycloScalar.inverse", "count"),
    _h("sixvertex", "zn_normalized"),
    _h("sixvertex", "weighted_partition_sum"),
    _h("schur", "schur_staircase"),
    _h("schur", "zprime_residue_sum"),
    _h("schur", "verify_dyck_values"),
    _h("schur", "wheel_check"),
    _h("schur", "recursion_check_q3"),
    _h("antisym", "bn_brute", observe=_antisym_ok),
    _h("antisym", "bn_closed", observe=_antisym_ok),
    _h("antisym", "fbar_det", observe=_antisym_ok),
    _h("antisym", "fbar_cauchy", observe=_antisym_ok),
]

# (metric, unit) in report order; every name here is computed by per_layer().
PER_LAYER = [
    ("asm.enumerate_asms.objects", "count"),
    ("asm.enumerate_asms.busy_s", "s"),
    ("asm.us_per_object", "us"),
    ("nilp.enumerate_nilps.objects", "count"),
    ("nilp.enumerate_nilps.busy_s", "s"),
    ("nilp.us_per_object", "us"),
    ("asm.genfun_doubly_refined.busy_s", "s"),
    ("nilp.genfun_U.busy_s", "s"),
    ("genpoly.add_term.calls", "count"),
    ("tsscpp.nilp_to_tsscpp.calls", "count"),
    ("tsscpp.nilp_to_tsscpp.busy_s", "s"),
    ("tsscpp.from_triangle.busy_s", "s"),
    ("tsscpp.tsscpp_to_nilp.busy_s", "s"),
    ("tsscpp.mrr_u_statistic.calls", "count"),
    ("nilp.involution_g.calls", "count"),
    ("nilp.involution_h.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("contour.iterated_residue.calls", "count"),
    ("contour.iterated_residue.busy_s", "s"),
    ("contour.self_s", "s"),
    ("contour.residue_stages", "count"),
    ("contour.stage_terms_in", "count"),
    ("contour.stage_terms_max", "count"),
    ("series.mul_poly.calls", "count"),
    ("series.mul_poly.busy_s", "s"),
    ("series.mul_poly.terms_out", "count"),
    ("series.geometric_mul.calls", "count"),
    ("series.geometric_mul.busy_s", "s"),
    ("series.geometric_mul.terms_out", "count"),
    ("series.residue_at_zero.busy_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.busy_s", "s"),
    ("poly.mul.terms_out", "count"),
    ("poly.exact_div.calls", "count"),
    ("poly.exact_div.busy_s", "s"),
    ("lgv.lgv_genfun.busy_s", "s"),
    ("lgv.endpoint_sequences", "count"),
    ("lgv.self_s", "s"),
    *[(f"matrix.det.{ring}.{what}", unit)
      for ring in ("poly", "fraction", "cyclo")
      for what, unit in (("calls", "count"), ("busy_s", "s"), ("dim_sum", "count"))],
    ("cyclo.mul.calls", "count"),
    ("cyclo.inverse.calls", "count"),
    ("sixvertex.zn_normalized.busy_s", "s"),
    ("sixvertex.weighted_partition_sum.busy_s", "s"),
    ("schur.schur_staircase.calls", "count"),
    ("schur.schur_staircase.busy_s", "s"),
    ("schur.zprime_residue_sum.busy_s", "s"),
    ("schur.verify_dyck_values.busy_s", "s"),
    ("schur.wheel_check.busy_s", "s"),
    ("schur.recursion_check_q3.busy_s", "s"),
    ("antisym.bn_brute.busy_s", "s"),
    ("antisym.bn_closed.busy_s", "s"),
    ("antisym.fbar_det.busy_s", "s"),
    ("antisym.fbar_cauchy.busy_s", "s"),
    ("antisym.useful_ratio", "ratio"),
    ("verify.run_verify.busy_s", "s"),
    ("verify.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.pool_ops", "count"),
    ("trace_overhead", "ratio"),
]


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, busy, parent, op)
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.op = None           # id of the op being run, set by the harness
        self._stack = []         # [span id, busy of direct children]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self._record(frame, parent, name, start, end, end - start)

    def _record(self, frame, parent, name, start, end, busy):
        self.busy[name] += busy
        self.self_time[name.split(".", 1)[0]] += busy - frame[1]
        self.spans.append((frame[0], name, start, end, busy, parent, self.op))

    def _span(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(frame, parent, label, start, end)
                self.counts[f"{label}.calls"] += 1
            if observe:
                observe(self.counts, label, args, result)
            return result
        return wrapper

    def _gen(self, fn, name):
        tracer = self

        def timed(inner):
            frame = parent = start = end = None
            busy = 0.0
            try:
                while True:
                    if frame is None:
                        frame, parent = tracer._open()
                        start = perf_counter()
                    else:
                        tracer._stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        busy += end - t0
                        tracer._stack.pop()
                        if tracer._stack:
                            tracer._stack[-1][1] += end - t0
                    tracer.counts[f"{name}.objects"] += 1
                    yield item
            finally:
                if frame is not None:
                    tracer._record(frame, parent, name, start, end, busy)
                tracer.counts[f"{name}.calls"] += 1

        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        import asmpp.cli  # noqa: F401  (loads every asmpp module)

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "asmpp" or k.startswith("asmpp.")) and m is not None]
        for hook in HOOKS:
            home = sys.modules[f"asmpp.{hook.module}"]
            owner_name, _, attr = hook.attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            if hook.kind == "span":
                wrapper = self._span(original, hook.name, hook.observe)
            elif hook.kind == "gen":
                wrapper = self._gen(original, hook.name)
            else:
                wrapper = self._count(original, hook.name)
            owners = [owner] if owner_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)
        verify = sys.modules["asmpp.verify"]
        self._patches.append((verify, "ProcessPoolExecutor", verify.ProcessPoolExecutor))
        verify.ProcessPoolExecutor = self._pool_class()

    def uninstall(self):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def _pool_class(self):
        counts = self.counts

        class CountingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                counts["verify.pool_ops"] += min(map(len, iterables))
                return super().map(fn, *iterables, **kwargs)
        return CountingPool

    # -- results ---------------------------------------------------------------

    def per_layer(self, passes, output_bytes, trace_overhead):
        """Every PER_LAYER metric, as a total per traced pass."""
        c, busy, self_time = self.counts, self.busy, self.self_time

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "asm.us_per_object": 1e6 * ratio(busy["asm.enumerate_asms"],
                                             c["asm.enumerate_asms.objects"]),
            "nilp.us_per_object": 1e6 * ratio(busy["nilp.enumerate_nilps"],
                                              c["nilp.enumerate_nilps.objects"]),
            "contour.stage_terms_max": c["contour.stage_terms_max"],
            "antisym.useful_ratio": ratio(
                c["antisym.ok"],
                sum(c[f"antisym.{f}.calls"]
                    for f in ("bn_brute", "bn_closed", "fbar_det", "fbar_cauchy"))),
            "trace_overhead": trace_overhead,
        }
        for metric, _unit in PER_LAYER:
            if metric in values:
                continue
            if metric == "cli.output_bytes":
                total = output_bytes
            elif metric.endswith(".busy_s"):
                total = busy[metric[:-len(".busy_s")]]
            elif metric.endswith(".self_s"):
                total = self_time[metric[:-len(".self_s")]]
            else:
                total = c[metric]
            values[metric] = total / passes
        return values

    def write_spans(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tbusy\tparent\top\n")
            for sid, name, start, end, busy, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{busy:.9f}"
                         f"\t{'' if parent is None else parent}\t{op}\n")
