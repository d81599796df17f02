import csv
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from asmpp import verify
from asmpp.asm import enumerate_asms
from asmpp.cli import main
from asmpp.nilp import enumerate_nilps
from asmpp.tsscpp import nilp_to_tsscpp


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
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
    code, _ = run_cli("genfun", "integral-A", "--n", "8")
    assert code == 2


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
])
def test_counting_route_caps(argv, cap, capsys):
    assert main(list(argv)) == 2
    assert f"n <= {cap}" in capsys.readouterr().err


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
        capture_output=True, text=True,
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
    ("verify", "wheel", "--n", "1..1"),
    ("genfun", "lgv", "--n", "3", "--weights", "1/3,1/3,1"),
    ("genfun", "lgv", "--n", "3", "--weights", "t,1/0,1"),
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
                  "t,u,v", ""],
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
    import io
    from contextlib import redirect_stderr, redirect_stdout
    argv = [*command, *n, *(token for option in options for token in option)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # every identity holds, so an exit 1 here would be bad input misreported
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), argv


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
def test_bijection_failure_names_the_first_broken_asm(monkeypatch, picks):
    from asmpp import sixvertex
    asms = list(enumerate_asms(3))
    _break(monkeypatch, sixvertex, "six_vertex_to_asm",
           [sixvertex.asm_to_six_vertex(asms[i]) for i in picks])
    failed = _failed_checks(("verify", "bijections", "--n", "3"))
    assert list(failed) == ["asm-vertex-roundtrip"]
    assert failed["asm-vertex-roundtrip"]["witness"] == asms[picks[0]].to_rows()
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
