"""Regenerate ``reference.json``: the brute-force reference polynomials for
n = 5, 6, 7 and the sha256 digest of every op's output at seed 0.

    python3 perfbench/make_reference.py

Run it only when a change of output format is intended; the benchmark
compares against the stored values, it does not recompute them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from asmpp.asm import genfun_doubly_refined  # noqa: E402
from gate import REFERENCE_PATH, Gate, digest  # noqa: E402
from workloads import build_ops, run_op  # noqa: E402

SEED = 0


def main():
    reference = {
        "polynomials": {str(n): genfun_doubly_refined(n).to_json_dict()
                        for n in (5, 6, 7)},
        "digests": {},
    }
    gate = Gate(reference)
    for workload in ("brute", "symbolic", "sampled"):
        ops = build_ops(workload, SEED)
        results = [run_op(op) for op in ops]
        for op, (_, out), reason in zip(ops, results, gate.check_pass(ops, results)):
            if reason is not None:
                sys.exit(f"{op.label}: {reason}")
            reference["digests"][op.label] = digest(out)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
