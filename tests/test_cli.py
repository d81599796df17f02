import csv
import gc
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from asmpp import cli, verify
from asmpp.asm import enumerate_asms
from asmpp.cli import main
from asmpp.nilp import enumerate_nilps
from asmpp.tsscpp import enumerate_tsscpps, nilp_to_tsscpp


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env():
    """The environment of a `python -m asmpp.cli` subprocess: this checkout's
    `src` first on PYTHONPATH, so it runs this tree's code, never an
    installed copy."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_enumerate_asm_json():
    code, out = run_cli("enumerate", "asm", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "v1"
    assert data["count"] == 7
    assert [[1, 0, 0], [0, 1, 0], [0, 0, 1]] in data["objects"]


def test_enumerate_nilp_and_tsscpp():
    code, out = run_cli("enumerate", "nilp", "--n", "1")
    data = json.loads(out)
    assert code == 0 and data["count"] == 1
    assert data["objects"][0] == {"paths": [{"steps": "", "extra": "D"}]}
    code, out = run_cli("enumerate", "tsscpp", "--n", "3")
    data = json.loads(out)
    assert code == 0 and data["count"] == 7
    flat = [[int(c) for c in row] for row in
            ("666333", "666333", "666333", "333000", "333000", "333000")]
    assert flat in data["objects"]


def test_enumerate_limit_is_refused():
    code, _ = run_cli("enumerate", "asm", "--n", "9")
    assert code == 2


# -- enumerate streams its report -----------------------------------------------

GENERATORS = {"asm": "enumerate_asms", "nilp": "enumerate_nilps",
              "tsscpp": "enumerate_tsscpps"}


def _in_memory_report(kind, n, fmt):
    """The enumerate report as it was built before it streamed: every object
    copied into nested lists, then the whole report as one string."""
    if kind == "asm":
        objects = [a.to_rows() for a in enumerate_asms(n)]
    elif kind == "tsscpp":
        objects = [t.to_rows() for t in enumerate_tsscpps(n)]
    else:
        objects = [p.to_json_dict() for p in enumerate_nilps(n)]
    count = len(objects)
    if fmt == "json":
        return json.dumps({"schema": "v1", "command": "enumerate", "kind": kind,
                           "n": n, "objects": objects, "count": count},
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = []
        for idx, obj in enumerate(objects):
            if kind == "nilp":
                cell = "|".join(f"{p['steps']}:{p['extra']}" for p in obj["paths"])
            else:
                cell = "|".join(" ".join(str(v) for v in row) for row in obj)
            rows.append([idx, cell])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", kind])
        writer.writerows(rows)
        return buf.getvalue() + f"# count,{count}\n"
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
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("kind, n", [
    *((kind, n) for kind in GENERATORS for n in range(1, 6)), ("asm", 6), ("nilp", 6),
])
def test_streamed_report_equals_the_in_memory_report(kind, n, fmt):
    code, out = run_cli("enumerate", kind, "--n", str(n), "--format", fmt)
    assert code == 0
    assert out == _in_memory_report(kind, n, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("kind", list(GENERATORS))
def test_report_is_written_before_the_last_object(monkeypatch, kind, fmt):
    name = GENERATORS[kind]
    full = getattr(cli, name)
    buf = io.StringIO()
    seen = []

    def late(n):
        objects = list(full(n))
        yield from objects[:-1]
        seen.append(buf.getvalue())
        yield objects[-1]
    monkeypatch.setattr(cli, name, late)
    with redirect_stdout(buf):
        code = main(["enumerate", kind, "--n", "4", "--format", fmt])
    out = buf.getvalue()
    assert code == 0 and out == _in_memory_report(kind, 4, fmt)
    # 42 objects: all but the last are out before it is enumerated
    assert out.startswith(seen[0]) and len(seen[0]) > 0.9 * len(out)


@pytest.mark.parametrize("change", ["drop", "extra"])
@pytest.mark.parametrize("kind", ["asm", "nilp"])
def test_a_wrong_object_count_exits_1(monkeypatch, capsys, tmp_path, kind, change):
    name = GENERATORS[kind]
    full = getattr(cli, name)
    if change == "drop":
        monkeypatch.setattr(cli, name, lambda n: itertools.islice(full(n), 1, None))
        got = 41
    else:
        monkeypatch.setattr(cli, name, lambda n: itertools.chain(full(n), full(n)))
        got = 84
    argv = ["enumerate", kind, "--n", "4"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: enumerated {got} objects, expected A_4 = 42\n"
    with pytest.raises(json.JSONDecodeError):  # the report's end is not written
        json.loads(captured.out)
    # with --out nothing is left behind, and a file at the target keeps its text
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == 1
    assert list(tmp_path.iterdir()) == []
    target.write_text("earlier\n")
    assert main(argv + ["--out", str(target)]) == 1
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "earlier\n"
    assert capsys.readouterr().err.count("error: enumerated") == 2


# -- --out: one writer for every command -----------------------------------------

OUT_ARGVS = [
    ("enumerate", "nilp", "--n", "4", "--format", "csv"),
    ("genfun", "asm-tilde", "--n", "4", "--format", "csv"),
    ("verify", "bijections", "--n", "1..3"),
    ("verify", "dyck", "--n", "1..2", "--format", "pretty"),
]


def test_unwritable_out_exits_2_before_enumerating(monkeypatch, capsys, tmp_path):
    """enumerate checks --out before its first object, genfun and verify
    before they compute their report."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed before --out was checked")
    for name in [*GENERATORS.values(), "genfun_doubly_refined", "run_verify"]:
        monkeypatch.setattr(cli, name, refuse)
    argvs = [("enumerate", kind, "--n", "3") for kind in GENERATORS] + OUT_ARGVS[1:]
    for argv in argvs:
        for out in (tmp_path / "missing" / "report.json", tmp_path):
            assert main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {out}: ")
            if out == tmp_path:
                assert captured.err.endswith(": Is a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_out_file_replaces_the_target_with_the_stdout_report(tmp_path):
    target = tmp_path / "report.csv"
    umask = os.umask(0o22)
    os.umask(umask)
    for argv in OUT_ARGVS:
        target.write_text("earlier\n")
        target.chmod(0o600)
        code, out = run_cli(*argv)
        assert code == 0
        assert run_cli(*argv, "--out", str(target)) == (0, ""), argv
        with open(target, encoding="utf-8", newline="") as fh:  # csv's "\r\n" kept
            assert fh.read() == out, argv
        assert list(tmp_path.iterdir()) == [target]
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_out_through_a_symlink_writes_its_target(tmp_path):
    (tmp_path / "reports").mkdir()
    target, link = tmp_path / "reports" / "report.txt", tmp_path / "link"
    link.symlink_to(target)  # dangling until the first report is written
    for argv in OUT_ARGVS:
        code, out = run_cli(*argv)
        assert run_cli(*argv, "--out", str(link)) == (code, ""), argv
        assert link.is_symlink() and os.readlink(link) == str(target)
        with open(target, encoding="utf-8", newline="") as fh:
            assert fh.read() == out, argv
        assert list((tmp_path / "reports").iterdir()) == [target]


def test_out_into_a_pipe_writes_it_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    for argv in OUT_ARGVS:
        code, out = run_cli(*argv)
        got = []

        def drain():
            with open(fifo, encoding="utf-8", newline="") as fh:
                got.append(fh.read())
        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        assert run_cli(*argv, "--out", str(fifo)) == (code, ""), argv
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [out], argv
        assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_a_closed_stdout_exits_2_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "asmpp.cli", "enumerate", "asm", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
    )
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()  # the report is about 1 MB, well past a pipe's buffer
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "error: cannot write <stdout>: Broken pipe\n"


def test_genfun_routes_agree():
    outputs = []
    for route in ("asm-tilde", "nilp", "integral-A", "integral-U"):
        code, out = run_cli("genfun", route, "--n", "3")
        assert code == 0
        outputs.append(json.loads(out)["coefficients"])
    assert all(o == outputs[0] for o in outputs)
    code, out = run_cli("genfun", "lgv", "--n", "3", "--weights", "t,s,1")
    data = json.loads(out)
    assert data["coefficients"] == outputs[0]
    assert data["variables"] == ["t", "s"]


def test_genfun_csv_format():
    code, out = run_cli("genfun", "asm-tilde", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("x\\y")
    assert len(lines) == 3


def test_genfun_integral_limit():
    for route, cap in (("integral-A", 12), ("integral-U", 12), ("integral-I", 7)):
        code, _ = run_cli("genfun", route, "--n", str(cap + 1))
        assert code == 2, route
    code, out = run_cli("genfun", "integral-U", "--n", "9", "--form", "after-u1")
    assert code == 0 and json.loads(out)["total"] == 911835460


def test_genfun_lgv_limit():
    code, out = run_cli("genfun", "lgv", "--n", "9")
    assert code == 0 and json.loads(out)["total"] == 911835460
    code, _ = run_cli("genfun", "lgv", "--n", "10")
    assert code == 2


def test_verify_passes_and_reports():
    code, out = run_cli("verify", "dyck", "--n", "1..3")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "v1"
    assert data["pass"] is True
    assert data["total"] == 1 + 2 + 5


def test_verify_vacuous_run_is_legal():
    code, out = run_cli("verify", "wheel", "--n", "2", "--samples", "0")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 0 and data["pass"] is True


def test_verify_unknown_suite_or_bad_range():
    code, _ = run_cli("verify", "doubly-refined", "--n", "1..10")
    assert code == 2


@pytest.mark.parametrize("argv, cap", [
    (("genfun", "asm-tilde", "--n", "13"), 12),
    (("genfun", "asm-reversed", "--n", "13"), 12),
    (("genfun", "nilp", "--n", "12"), 11),
    (("verify", "doubly-refined", "--n", "10"), 9),
    (("verify", "even-partitions", "--n", "6"), 5),
    (("verify", "dyck", "--n", "9"), 8),
    (("verify", "wheel", "--n", "15"), 14),
    (("verify", "zprime", "--n", "6"), 5),
    (("verify", "six-vertex", "--n", "7"), 6),
    (("verify", "bijections", "--n", "6"), 5),
    (("verify", "involutions", "--n", "6"), 5),
    (("verify", "mrr", "--n", "6"), 5),
    (("verify", "zeilid", "--n", "6"), 5),
    (("verify", "recursion", "--n", "8"), 7),
    (("verify", "appendix-d", "--n", "1..12"), 11),
])
def test_counting_route_caps(argv, cap, capsys):
    assert main(list(argv)) == 2
    assert f"n <= {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("suite, cap, total", [
    ("dyck", 8, 1430), ("wheel", 14, 20), ("zprime", 5, 20), ("six-vertex", 6, 10),
])
def test_q3_suites_pass_at_their_cap(suite, cap, total):
    code, out = run_cli("verify", suite, "--n", str(cap))
    data = json.loads(out)
    assert code == 0 and data["pass"] is True
    assert data["n_range"] == [cap, cap] and data["total"] == total


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _ = run_cli("verify", "recursion", "--n", "2..3", "--seed", "7",
                          "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_identical_across_worker_counts(tmp_path):
    a = tmp_path / "w1.json"
    b = tmp_path / "w2.json"
    code, _ = run_cli("verify", "bijections", "--n", "1..3", "--seed", "3",
                      "--workers", "1", "--out", str(a))
    assert code == 0
    code, _ = run_cli("verify", "bijections", "--n", "1..3", "--seed", "3",
                      "--workers", "2", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "asmpp.cli", "verify", "even-partitions", "--n", "1..2"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_every_spec_suite_exists():
    for suite in ("doubly-refined", "dyck", "wheel", "recursion", "zeilid",
                  "a-independence", "appendix-d", "even-partitions",
                  "bijections", "involutions", "mrr"):
        code, out = run_cli("verify", suite, "--n",
                            "2" if suite in ("wheel", "recursion") else "1..2",
                            "--samples", "2")
        assert code == 0, suite
        assert json.loads(out)["pass"] is True, suite


@pytest.mark.parametrize("argv", [
    ("verify", "dyck", "--n", "3..x"),
    ("genfun", "integral-I", "--n", "3", "--a", "1/0,2"),
    ("genfun", "asm-tilde", "--n", "3", "--out", "/nonexistent/f"),
    ("verify", "dyck", "--n", "1..2", "--samples", "-1"),
    ("verify", "dyck", "--n", "1..2", "--workers", "0"),
    ("verify", "dyck", "--n", "1..2", "--workers", "-3"),
    ("verify", "wheel", "--n", "1..1"),
    ("genfun", "lgv", "--n", "3", "--weights", "1/3,1/3,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "t,1/0,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "t,,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "t, ,1"),
    ("genfun", "lgv", "--n", "3", "--weights", " , ,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "2t,s,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "t,-s,1"),
])
def test_bad_input_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


FUZZ_COMMANDS = st.one_of(
    st.tuples(st.just("enumerate"), st.sampled_from(["asm", "nilp", "tsscpp", "x"])),
    st.tuples(st.just("genfun"), st.sampled_from(
        ["asm-tilde", "asm-reversed", "nilp", "lgv", "integral-A", "integral-U",
         "integral-I", "x"])),
    st.tuples(st.just("verify"), st.sampled_from([*verify.SUITES, "x"])),
)
FUZZ_N = st.sampled_from([(), ("--n",)] + [("--n", t) for t in (
    "1", "2", "3", "4", "1..3", "2..4", "0", "5", "-1", "x", "3..x", "4..1", "..", "")])
FUZZ_VALUES = {
    "--format": ["json", "csv", "pretty", "x"],
    "--form": ["raw", "after-u1", "x"],
    "--weights": ["t,s,1", "1,2,1,3", "t,s,1,1", "1/3,1/3,1", "1/2,2", "t,1/0,1",
                  "t,u,v", "1,-1", "0,0,0", ""],
    "--a": ["y(1-y)", "1,2", "-8/5,1,3/2", "1/0,2", "x", ""],
    "--i": ["0", "1", "5", "x"],
    "--j": ["0", "2", "-1", "x"],
    "--seed": ["0", "11", "x"],
    "--samples": ["0", "1", "-1", "x"],
    "--workers": ["0", "1", "-1", "x"],
    "--out": ["/nonexistent/f"],
    "--bogus": ["1"],
}
FUZZ_OPTIONS = st.lists(st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(FUZZ_VALUES[flag]))),
    max_size=3)


@settings(max_examples=200, deadline=None)
@given(FUZZ_COMMANDS, FUZZ_N, FUZZ_OPTIONS)
def test_fuzzed_arguments_keep_the_exit_code_contract(command, n, options):
    from contextlib import redirect_stderr
    argv = [*command, *n, *(token for option in options for token in option)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # every identity holds, so an exit 1 here would be bad input misreported
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), argv


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("n, weights", [("2", "1,-1"), ("3", "0,0,0")])
def test_zero_polynomial_reports(fmt, n, weights):
    code, out = run_cli("genfun", "lgv", "--n", n, "--weights", weights, "--format", fmt)
    assert code == 0
    if fmt == "json":
        report = json.loads(out)
        assert report["matrix"] == [] and report["total"] == 0
    elif fmt == "csv":
        assert out.splitlines() == ["x\\y"]
    else:
        assert out == f"lgv  n={n}\n0\ntotal = 0\n\n"


def test_lgv_integer_weights_keep_their_counts():
    code, out = run_cli("genfun", "lgv", "--n", "3", "--weights", "1,1,1")
    assert code == 0
    assert json.loads(out)["total"] == 7


# -- the verifier can fail, and reports the first failing object -------------

BROKEN = object()


def _break(monkeypatch, module, name, targets):
    """Make module.name return BROKEN on each target (and on BROKEN)."""
    real = getattr(module, name)

    def broken(obj, *args):
        if obj is BROKEN or any(obj == t for t in targets):
            return BROKEN
        return real(obj, *args)
    monkeypatch.setattr(module, name, broken)


def _failed_checks(argv):
    code, out = run_cli(*argv)
    assert code == 1
    report = json.loads(out)
    return {c["check"]: c for c in report["checks"] if not c["pass"]}


@pytest.mark.parametrize("picks", [(5,), (2, 5)])
def test_bijection_failure_names_the_first_broken_asm(monkeypatch, tmp_path, picks):
    from asmpp import sixvertex
    asms = list(enumerate_asms(3))
    _break(monkeypatch, sixvertex, "six_vertex_to_asm",
           [sixvertex.asm_to_six_vertex(asms[i]) for i in picks])
    failed = _failed_checks(("verify", "bijections", "--n", "3"))
    assert list(failed) == ["asm-vertex-roundtrip"]
    assert failed["asm-vertex-roundtrip"]["witness"] == asms[picks[0]].to_rows()
    reports = _recorded_reports(monkeypatch)
    code, out = run_cli("verify", "bijections", "--n", "3")
    assert code == 1 and out == _reference(reports[-1])
    target = tmp_path / "report.json"  # a failing run's report is whole: --out keeps it
    assert run_cli("verify", "bijections", "--n", "3", "--out", str(target)) == (1, "")
    assert target.read_text() == out
    code, out = run_cli("verify", "bijections", "--n", "3", "--format", "pretty")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("  [FAIL] asm-vertex-roundtrip n=3")
    assert lines[at + 1:at + 4] == [
        "         expected identity",
        "         got      mismatch",
        f"         witness  {json.dumps(asms[picks[0]].to_rows())}",
    ]
    assert sum("witness" in line for line in lines) == 1
    code, out = run_cli("verify", "bijections", "--n", "3", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(out.splitlines()))
    at = rows.index(["asm-vertex-roundtrip", "3", "identity", "mismatch", "False"])
    assert rows[at + 1] == ["# witness", json.dumps(asms[picks[0]].to_rows())]
    assert sum(row[0] == "# witness" for row in rows) == 1


@pytest.mark.parametrize("picks", [(4,), (1, 4)])
def test_path_bijection_failure_names_the_first_broken_bundle(monkeypatch, picks):
    paths = list(enumerate_nilps(3))
    _break(monkeypatch, verify, "tsscpp_to_nilp",
           [nilp_to_tsscpp(paths[i]) for i in picks])
    failed = _failed_checks(("verify", "bijections", "--n", "3"))
    assert list(failed) == ["tsscpp-path-roundtrip"]
    assert failed["tsscpp-path-roundtrip"]["witness"] == paths[picks[0]].to_json_dict()


@pytest.mark.parametrize("picks", [(6,), (3, 6)])
def test_involution_failures_name_the_first_broken_bundle(monkeypatch, picks):
    paths = list(enumerate_nilps(4))
    targets = [paths[i] for i in picks]
    _break(monkeypatch, verify, "involution_h", targets)
    _break(monkeypatch, verify, "involution_g", targets)
    failed = _failed_checks(("verify", "involutions", "--n", "4"))
    assert sorted(failed) == ["slice-swap-involution", "top-swap-involution"]
    assert failed["top-swap-involution"]["witness"] == targets[0].to_json_dict()
    assert failed["slice-swap-involution"]["witness"] == {
        "row": 1, **targets[0].to_json_dict()}


def test_dyck_fails_on_a_sign_flipped_schur_determinant(monkeypatch):
    from asmpp import schur
    real = schur.determinant
    monkeypatch.setattr(schur, "determinant", lambda m: -real(m))
    code, out = run_cli("verify", "dyck", "--n", "3")
    assert code == 1
    report = json.loads(out)
    first = next(c for c in report["checks"] if not c["pass"])
    assert first == {"check": "ballot-specialization", "n": 3, "expected": "27",
                     "got": "-27", "pass": False, "point": "---+++"}
    assert report["failures"] == report["total"] == 5


def test_doubly_refined_compares_two_independent_counts(monkeypatch):
    real = verify.genfun_U

    def one_too_many(n, i, j):
        poly = real(n, i, j)
        poly.add_term(0, 0)
        return poly
    monkeypatch.setattr(verify, "genfun_U", one_too_many)
    code, out = run_cli("verify", "doubly-refined", "--n", "3")
    assert code == 1
    checks = {c["check"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks == {"asm-equals-paths": False, "asm-equals-lgv": True}


def test_mrr_witness_belongs_to_the_failing_check(monkeypatch):
    arrays = [nilp_to_tsscpp(p) for p in enumerate_nilps(3)]
    real = verify.mrr_u_statistic_upper_left
    monkeypatch.setattr(
        verify, "mrr_u_statistic_upper_left",
        lambda a, k: real(a, k) + (a == arrays[2]))
    code, out = run_cli("verify", "mrr", "--n", "3")
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["array-formula-agreement"]["witness"] == arrays[2].to_rows()
    assert checks["array-vs-path-statistics"]["pass"]
    assert "witness" not in checks["array-vs-path-statistics"]


# -- JSON reports --------------------------------------------------------------

def _reference(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _recorded_reports(monkeypatch):
    """Every report cli.main prints from here on, as run_verify returned it."""
    from asmpp import cli
    reports = []

    def record(*args, **kwargs):
        reports.append(verify.run_verify(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(cli, "run_verify", record)
    return reports


def test_enumerate_lays_out_each_distinct_row_once(monkeypatch):
    """One json.dumps for the head and one per distinct row, not one per
    ASM: 429 objects share far fewer rows.  The row texts are cached per
    process, so the cache starts empty here."""
    real, calls = json.dumps, []
    cli._part_text.cache_clear()

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    rows = {row for asm in enumerate_asms(5) for row in asm.entries}
    monkeypatch.setattr(json, "dumps", counted)
    code, out = run_cli("enumerate", "asm", "--n", "5", "--format", "json")
    monkeypatch.undo()
    assert code == 0 and json.loads(out)["count"] == 429
    assert 0 < len(calls) <= len(rows) + 1


def test_a_repeated_call_leaves_little_cyclic_garbage():
    """The parser is built once per process and the part texts of
    `enumerate` once per process too, so a second call leaves only the
    cycles of one json.dumps (about 33 objects), not the 200-odd of a new
    parser's actions or those of a json.dumps per distinct part."""
    for argv in (["genfun", "asm-tilde", "--n", "4"],
                 ["enumerate", "asm", "--n", "5", "--format", "json"],
                 ["enumerate", "nilp", "--n", "5", "--format", "json"],
                 ["enumerate", "tsscpp", "--n", "4", "--format", "json"]):
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_cli(*argv)
            gc.collect()
            code, _ = run_cli(*argv)
            left = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert code == 0, argv
        assert left < 60, (argv, left)


def test_a_command_patched_after_the_first_call_runs(monkeypatch):
    assert run_cli("genfun", "asm-tilde", "--n", "2")[0] == 0
    monkeypatch.setattr(cli, "cmd_genfun", lambda args: 7)
    assert run_cli("genfun", "asm-tilde", "--n", "2")[0] == 7
