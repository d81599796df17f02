"""Benchmark of the asmpp exact verifier.

    python3 perfbench/run.py --workload {brute,symbolic,sampled}
        [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length at which the bounds and ``baseline.json`` were measured.

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  One process runs one closed-loop client: each op
starts only after the previous one returned.  Passes over the workload's op
list repeat until ``--seconds`` have elapsed (the last pass is completed).
Every op's output is captured in memory and checked by ``gate.Gate`` as
soon as the op returns, outside the op's timed span; only its digest is
kept.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median, over fresh interpreters started between passes, of
  the time to import ``asmpp`` and ``asmpp.cli`` and build the parser;
* ``pass_s``: the time of a typical pass, the sum over the op list of each
  op's median latency.  The host this was tuned on switches between a fast
  and a slow state every few seconds, and a pass mixes the two; per-op
  medians settle on the prevailing state.  Over ten seeds per workload
  (2-core Xeon, CPython 3.11) this sum spread by 7.2%, 9.7% and 3.7% of its
  median on brute, symbolic and sampled, where the median of whole-pass
  times spread by 10.5%, 8.4% and 5.2%;
* ``slowest_op_s``: the median latency of the op whose median is highest.
  It is taken per op, not as a percentile of all op latencies pooled,
  because the rank of such a percentile moves from one op group to another
  with the number of passes, which a time-bounded run does not fix.  Being
  a maximum of medians, it cannot rise when any op gets faster;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.  The record names the op
  during which it was last raised, and how much the gate raised it (0 when
  the program's own work sets the peak).

The run record also holds every pass's time, with their median and the
highest percentile with at least ten samples beyond it, ``op_p50_s``, the
median latency over all op executions, and each op's median latency.
``op_p50_s`` is not a reported metric: about half of each workload's op
types lie on either side of a wide latency gap, so the median falls
between the slowest of the fast ops and the fastest of the slow ones, and
its spread over ten runs of the same code (2-core Xeon, CPython 3.11) was
11-26% of its median.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.PER_LAYER``, per traced pass, plus
``trace_overhead`` (median traced over median untraced whole-pass time).
Traced outputs must be byte-identical to untraced ones, or the op counts as
failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the share of op executions that failed the gate.  The generated argv,
per-op latencies and failures go to ``.bench_out/`` in the checkout, and the
spans of a traced run to a gzipped file beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from gate import Gate
from tracer import PER_LAYER, WORKER_NOTE, Tracer
from workloads import WHY, build_ops, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("brute", "symbolic", "sampled")
SETUP_MIN = 7
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import asmpp, asmpp.cli\n"
    "asmpp.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("slowest_op_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail(samples, beyond=10):
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it, or None when there are too few samples."""
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return ordered[k], 100 * (k + 1) / len(ordered)


def setup_sample():
    """Seconds a fresh interpreter takes to import asmpp and asmpp.cli and
    build the parser.  Bytecode is cached, as for an installed CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env,
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model}


class Run:
    """State of one benchmark run: ops, samples and failures."""

    def __init__(self, ops, gate):
        self.ops = ops
        self.gate = gate
        self.latencies = []                  # every op execution
        self.per_op = [[] for _ in ops]
        self.attempted = 0
        self.failures = []                   # (op label, reason)
        self.peak_rss_op = None              # op during which ru_maxrss last rose
        self.gate_rss_kb = 0                 # ru_maxrss rise during gate checks

    def one_pass(self, tracer=None, expected=None):
        """Run every op once, gating each output as soon as the op returns.
        Returns (pass time, output digests, bytes of CLI output).  With
        ``expected`` digests given, an op whose output differs has failed."""
        seen = {}
        wall = 0.0
        out_bytes = 0
        for idx, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = len(self.latencies)
            rss = _maxrss_kb()
            t0 = perf_counter()
            try:
                rc, out = run_op(op)
            except Exception as exc:  # an op that raises is a failed op
                rc, out = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            wall += elapsed
            self.latencies.append(elapsed)
            self.per_op[idx].append(elapsed)
            after_op = _maxrss_kb()
            if after_op > rss:
                self.peak_rss_op = op.label
            reason = self.gate.check(op, rc, out, seen)
            if reason is None and expected and expected[idx] != seen[op.label]:
                reason = "traced output differs from untraced"
            if reason is not None:
                self.failures.append((op.label, reason))
            if op.argv:
                out_bytes += len(out.encode())
            del out  # freed before the next op, so peak_rss_mb is the program's
            self.gate_rss_kb += _maxrss_kb() - after_op
        self.attempted += len(self.ops)
        return wall, [seen[op.label] for op in self.ops], out_bytes


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_untraced(run, seconds):
    # Setup is sampled after every pass, so that its samples are spread over
    # the run like the passes; the first one may write the bytecode cache.
    setup_sample()
    passes, setup = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run.one_pass()[0])
        setup.append(setup_sample())
    while len(setup) < SETUP_MIN:
        setup.append(setup_sample())
    op_medians = [statistics.median(lat) for lat in run.per_op]
    slowest = max(range(len(op_medians)), key=op_medians.__getitem__)
    pass_tail = tail(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(op_medians),
        "slowest_op_s": op_medians[slowest],
        "peak_rss_mb": _maxrss_kb() / 1024,
    }
    details = {
        "setup_s": {"samples": len(setup), "values": setup},
        "pass_s": {"samples": len(passes), "values": passes,
                   "median": statistics.median(passes),
                   "tail": None if pass_tail is None
                   else {"value": pass_tail[0], "percentile": pass_tail[1]}},
        "slowest_op_s": {"op": run.ops[slowest].label,
                         "samples": len(run.per_op[slowest])},
        "peak_rss_mb": {"last_raised_by": run.peak_rss_op,
                        "raised_by_gate_mb": run.gate_rss_kb / 1024},
        "op_p50_s": statistics.median(run.latencies),
    }
    return metrics, details


def run_traced(run, seconds, spans_path):
    tracer = Tracer()
    plain, traced = [], []
    output_bytes = 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        wall, reference, _ = run.one_pass()
        plain.append(wall)
        tracer.install()
        try:
            wall, _, nbytes = run.one_pass(tracer, expected=reference)
        finally:
            tracer.uninstall()
        traced.append(wall)
        output_bytes += nbytes
    overhead = statistics.median(traced) / statistics.median(plain)
    values = tracer.per_layer(len(traced), output_bytes, overhead)
    tracer.write_spans(spans_path)
    details = {"untraced_pass_s": plain, "traced_pass_s": traced,
               "spans": spans_path.name, "spans_count": len(tracer.spans),
               "note": WORKER_NOTE}
    return values, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "asmpp" / "cli.py").is_file():
        print(f"error: no asmpp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import asmpp.cli

    if not Path(asmpp.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: asmpp was imported from {asmpp.cli.__file__}", file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed)
    run = Run(ops, Gate())
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details = run_traced(run, args.seconds, OUT_DIR / f"spans-{stem}.tsv.gz")
        units = PER_LAYER
    else:
        metrics, details = run_untraced(run, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units}
    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "argv": [op.label for op in ops],
        "op_median_s": {op.label: statistics.median(lat)
                        for op, lat in zip(ops, run.per_op)},
        "op_latencies_s": {op.label: lat for op, lat in zip(ops, run.per_op)},
        "metrics": metrics, "details": details,
        "attempted": run.attempted, "failures": run.failures,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:42s} {m['value']:14.6g} {m['unit']}")
    for label, reason in run.failures[:10]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
