"""Record ``baseline.json``: the machine, every workload's op list and why,
the prediction table, ten untraced runs per workload (seeds 0-9) with the
median and quartiles of each end-to-end metric, and one traced run per
workload (seed 0).

    python3 perfbench/record_baseline.py

Each run is a fresh ``run.py`` process at the run length of
``BENCHMARK.json``, as the benchmark is run.  It takes about 25 minutes on
a 2-core Xeon.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, OUT_DIR, WORKLOADS, machine

SEEDS = range(10)
NOTE = ("Orientation only. The same pass time moved by up to 67% from one "
        "hour to the next on the 2-core host these runs were made on, so "
        "compare a parent and a change in alternating pairs on one host, "
        "not against these values. spread is (q3 - q1) / median over the "
        "ten seeds.")

# Which end-to-end metric each layer metric should move, on which workload,
# and where no change is predicted.
PREDICTIONS = [
    {"layers": "asm.enumerate_asms.*, asm.us_per_object, nilp.enumerate_nilps.*, "
               "nilp.us_per_object, asm.genfun_doubly_refined.busy_s, "
               "nilp.genfun_U.busy_s, genpoly.add_term.calls",
     "moves": "pass_s, slowest_op_s", "on": "brute",
     "unchanged": "symbolic (whose only use is genpoly.add_term, converting "
                  "integral results); sampled only through six-vertex at n <= 3"},
    {"layers": "tsscpp.*, nilp.involution_g.calls, nilp.involution_h.calls",
     "moves": "slowest_op_s, pass_s", "on": "brute", "unchanged": "symbolic, sampled"},
    {"layers": "cli.main.*, cli.self_s, cli.output_bytes",
     "moves": "pass_s, peak_rss_mb", "on": "brute (MB-sized enumerate JSON)",
     "unchanged": "symbolic"},
    {"layers": "contour.iterated_residue.*, contour.self_s, contour.residue_stages, "
               "contour.stage_terms_in, contour.stage_terms_max",
     "moves": "pass_s", "on": "symbolic",
     "unchanged": "slowest_op_s on symbolic (its slowest op is lgv n = 7) "
                  "unless integral_U(6) becomes the slowest; brute; sampled "
                  "only through appendix-d's homogeneous-limit check at n <= 3"},
    {"layers": "series.mul_poly.*, series.geometric_mul.*, series.residue_at_zero.busy_s",
     "moves": "pass_s", "on": "symbolic",
     "unchanged": "brute; sampled as for contour"},
    {"layers": "poly.mul.*, poly.exact_div.*, lgv.lgv_genfun.busy_s, "
               "lgv.endpoint_sequences, lgv.self_s",
     "moves": "slowest_op_s, pass_s", "on": "symbolic (lgv n = 7, its slowest op)",
     "unchanged": "sampled; brute only through doubly-refined's lgv_genfun_xy"},
    {"layers": "matrix.det.{poly,fraction,cyclo}.{calls,busy_s,dim_sum}",
     "moves": "poly ring: slowest_op_s on symbolic; scalar rings: pass_s on sampled",
     "on": "symbolic, sampled",
     "unchanged": "a change for one ring leaves the other workload unchanged"},
    {"layers": "cyclo.mul.calls, cyclo.inverse.calls, sixvertex.*, schur.*",
     "moves": "pass_s, slowest_op_s (verify dyck, its slowest op)", "on": "sampled",
     "unchanged": "brute, symbolic"},
    {"layers": "antisym.*", "moves": "pass_s", "on": "sampled", "unchanged": "symbolic"},
    {"layers": "verify.run_verify.busy_s, verify.self_s, verify.checks, verify.pool_ops",
     "moves": "pass_s", "on": "sampled (pool fork/pickle cost)", "unchanged": ""},
    {"layers": "trace_overhead", "moves": "none; the cost of tracing", "on": "all",
     "unchanged": ""},
]


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(workload, seed, trace, result["failed"], "failed", flush=True)
    return result, record


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = {"machine": machine(), "note": NOTE, "seeds": list(SEEDS),
                "seconds": spec["run_seconds"], "predictions": PREDICTIONS,
                "workloads": {}}
    for workload in WORKLOADS:
        runs, first = [], None
        for seed in SEEDS:
            result, record = run_once(workload, seed, 0)
            first = first or record
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
        traced, _ = run_once(workload, SEEDS[0], 1)
        baseline["workloads"][workload] = {
            "why": first["why"], "ops": first["argv"],
            "op_median_s": first["op_median_s"],
            "end_to_end": {name: summary([r[name] for r in runs])
                           for name in first["metrics"]},
            "runs": runs, "per_layer": traced,
        }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
