"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Checks that tracing leaves every report byte-identical, that the gate
counts a corrupted result as failed, that the seed reaches the argv and
nothing else, and that ``BENCHMARK.json`` names what the harness reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import asmpp.cli  # noqa: E402
from gate import Gate, asm_count  # noqa: E402
from run import END_TO_END, Run, tail  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WHY, Op, build_ops, run_op, seeded_values  # noqa: E402

WORKLOADS = ("brute", "symbolic", "sampled")


def _traced(ops):
    tracer = Tracer()
    tracer.install()
    try:
        return tracer, [run_op(op) for op in ops]
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_are_byte_identical(workload):
    ops = build_ops(workload, 0)
    plain = [run_op(op) for op in ops]
    tracer, traced = _traced(ops)
    for op, want, got in zip(ops, plain, traced):
        assert want == got, op.label
    assert tracer.counts["cli.main.calls"] == sum(1 for op in ops if op.argv)
    assert Gate().check_pass(ops, traced) == [None] * len(ops)


def test_uninstall_restores_every_binding():
    originals = {name: getattr(asmpp.cli, name)
                 for name in ("main", "enumerate_asms", "integral_A", "lgv_genfun")}
    det = asmpp.lgv.determinant
    tracer = Tracer()
    tracer.install()
    try:
        assert asmpp.cli.enumerate_asms is not originals["enumerate_asms"]
        assert asmpp.sixvertex.enumerate_asms is asmpp.asm.enumerate_asms
        assert asmpp.schur.determinant is asmpp.algebra.matrix.determinant
        assert asmpp.lgv.determinant is not det
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(asmpp.cli, name) is fn
    assert asmpp.lgv.determinant is det


def test_layer_counts_follow_the_work():
    tracer, results = _traced([Op(argv=("genfun", "asm-tilde", "--n", "4"), n=4)])
    assert results[0][0] == 0
    assert tracer.counts["asm.enumerate_asms.objects"] == asm_count(4)
    assert tracer.counts["contour.stage_terms_in"] == 0
    tracer, results = _traced([Op(argv=("genfun", "integral-A", "--n", "4"), n=4)])
    assert results[0][0] == 0
    assert tracer.counts["contour.stage_terms_in"] > 0
    assert tracer.counts["asm.enumerate_asms.objects"] == 0
    values = tracer.per_layer(1, 0, 1.0)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["contour.self_s"] > 0


def test_gate_counts_a_corrupted_route(monkeypatch):
    def wrong(n, *args):
        poly = asmpp.contour.integral_A(n, *args)
        poly.add_term(0, 0, 1)
        return poly

    ops = [Op(argv=("genfun", "integral-A", "--n", "4"), n=4),
           Op(argv=("verify", "dyck", "--n", "1..2"))]
    gate = Gate({"polynomials": {"4": asmpp.asm.genfun_doubly_refined(4).to_json_dict()},
                 "digests": {}})
    run = Run(ops, gate)
    run.one_pass()
    assert run.failures == []
    monkeypatch.setattr(asmpp.cli, "integral_A", wrong)
    monkeypatch.setattr(asmpp.verify, "verify_dyck_values",
                        lambda n: [{"check": "x", "n": n, "pass": False}])
    run.one_pass()
    assert run.attempted == 4
    assert [label for label, _ in run.failures] == [op.label for op in ops]


def test_gate_rejects_digest_count_and_worker_mismatches():
    op = Op(argv=("enumerate", "asm", "--n", "3"), n=3)
    rc, out = run_op(op)
    gate = Gate({"polynomials": {}, "digests": {op.label: "0" * 64}})
    assert "digest" in gate.check(op, rc, out, {})
    gate = Gate({"polynomials": {}, "digests": {}})
    assert gate.check(op, rc, out, {}) is None
    assert gate.check(op, 2, out, {}) == "exit code 2"
    bad = out.replace('"count": 7', '"count": 8')
    assert "A_3" in gate.check(op, rc, bad, {})
    one = Op(argv=("verify", "dyck", "--n", "1..2"))
    two = Op(argv=("verify", "dyck", "--n", "1..2", "--workers", "2"))
    report = run_op(one)
    assert gate.check_pass([one, two], [report, report]) == [None, None]
    changed = (0, report[1].replace('"seed": 0', '"seed": 1'))
    assert gate.check_pass([one, two], [report, changed])[1] is not None


def test_second_seed_changes_reports_but_nothing_fails():
    assert seeded_values(0) != seeded_values(2)
    gate = Gate()
    seeded = {}
    for workload in WORKLOADS:
        a, b = build_ops(workload, 0), build_ops(workload, 2)
        assert len(a) == len(b)
        seeded[workload] = [op for op in b if op not in a]
        assert seeded[workload], workload
    assert seeded["sampled"] == [op for op in build_ops("sampled", 2) if "dyck" not in op.label]
    for workload, ops in seeded.items():
        results = [run_op(op) for op in ops]
        assert gate.check_pass(ops, results) == [None] * len(ops), workload
        for op, (_, out) in zip(ops, results):
            assert op.label not in gate.digests
            if workload == "sampled":
                old = run_op(build_ops("sampled", 0)[build_ops("sampled", 2).index(op)])
                assert json.loads(old[1])["checks"] != json.loads(out)["checks"]


def test_tail_percentile():
    assert tail(list(range(10))) is None
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == 10


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brute"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
