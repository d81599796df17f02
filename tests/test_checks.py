from fractions import Fraction
from itertools import count

import pytest

from asmpp.checks import check, witness_check
from asmpp.verify import SUITES, run_verify


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_keeps_the_record_contract(suite):
    lo = SUITES[suite][1][0]
    report = run_verify(suite, n_range=(lo, lo), seed=0)
    assert report["checks"]
    for c in report["checks"]:
        assert isinstance(c["check"], str) and c["n"] == lo
        assert isinstance(c["expected"], str) and isinstance(c["got"], str)
        assert type(c["pass"]) is bool
        assert "witness" not in c or not c["pass"]


def test_check_stringifies_and_compares_the_values():
    c = check("half", 2, Fraction(1, 2), Fraction(2, 4), point=[1, 2])
    assert c == {"check": "half", "n": 2, "expected": "1/2", "got": "1/2",
                 "pass": True, "point": [1, 2]}
    assert not check("half", 2, Fraction(1, 2), Fraction(1, 3))["pass"]


def test_a_given_verdict_overrides_the_comparison():
    c = check("summary", 1, "3 terms", "3 terms", passed=False)
    assert c["expected"] == c["got"] and c["pass"] is False


def test_witness_check_stops_at_the_first_broken_object():
    objects = count()
    c = witness_check("parity", 1, "even", "odd", objects,
                      lambda k: k % 2 == 1 and k > 4, lambda k: {"k": k})
    assert c == {"check": "parity", "n": 1, "expected": "even", "got": "odd",
                 "pass": False, "witness": {"k": 5}}
    assert next(objects) == 6


def test_witness_check_passes_without_a_witness_when_nothing_is_broken():
    c = witness_check("parity", 1, "even", "odd", (2 * k for k in range(5)),
                      lambda k: k % 2 == 1, lambda k: {"k": k})
    assert c == {"check": "parity", "n": 1, "expected": "even", "got": "even",
                 "pass": True}
