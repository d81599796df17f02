import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cyclo_oracle
from asmpp.algebra import CycloScalar, ZETA, Q3, Q3_HALF, Q3_NEG_HALF, cyclo


def test_defining_reduction():
    assert ZETA * ZETA == ZETA - 1


def test_cubic_root():
    q = ZETA * ZETA
    assert q * q * q == 1
    assert q * q + q + 1 == 0


def test_product_expansion():
    # (1+z)(1-z) = 1 - z^2 = 1 - (z-1) = 2 - z
    assert (1 + ZETA) * (1 - ZETA) == 2 - ZETA


def test_square_roots_of_q():
    assert Q3_HALF * Q3_HALF == Q3
    assert Q3_NEG_HALF * Q3_NEG_HALF == Q3 ** (-1)
    assert Q3_HALF * Q3_NEG_HALF == 1


def test_inverse_and_division():
    a = CycloScalar(Fraction(3, 7), Fraction(-2, 5))
    assert a * a.inverse() == 1
    assert (a / a) == 1
    assert CycloScalar(5) / CycloScalar(2) == Fraction(5, 2)


def test_norm_positive_definite():
    a = CycloScalar(Fraction(-1, 3), Fraction(2, 9))
    assert a.norm() == a.c0 ** 2 + a.c0 * a.c1 + a.c1 ** 2
    assert a.norm() > 0


def test_rationality():
    assert Q3 ** 3 == 1
    assert (Q3 ** 3).is_rational()
    assert not Q3.is_rational()
    assert CycloScalar(2, 0).to_fraction() == 2


def test_power_negative_exponent():
    assert ZETA ** (-1) == 1 - ZETA
    assert ZETA ** 6 == 1
    assert ZETA ** 12 == 1
    assert ZETA ** 3 == -1


# k/d with 1 <= d <= 7 and |k/d| <= 10, built from integer draws: the same
# values as st.fractions(-10, 10, max_denominator=7) at a fraction of the
# generation cost
small = st.integers(1, 7).flatmap(
    lambda d: st.integers(-10 * d, 10 * d).map(lambda k: Fraction(k, d)))
scalars = st.builds(CycloScalar, small, small)


@settings(max_examples=500)
@given(scalars, scalars, scalars)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)


@settings(max_examples=500)
@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_commutativity_and_closure(a, b):
    p = a * b
    assert p == b * a
    assert isinstance(p, CycloScalar)


@given(scalars)
def test_conjugate_is_automorphism(a):
    b = CycloScalar(Fraction(1, 2), Fraction(-3, 4))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


# -- the int-backed representation, against the two-Fraction oracle -------


def assert_canonical(x):
    """x is stored as (n0, n1, d) with d > 0 and gcd(n0, n1, d) == 1."""
    assert isinstance(x, CycloScalar)
    n0, n1, d = x._t
    assert all(type(v) is int for v in (n0, n1, d))
    assert d > 0 and gcd(n0, n1, d) == 1


def assert_agrees(new, old):
    assert_canonical(new)
    assert isinstance(old, cyclo_oracle.CycloScalar)
    assert (new.c0, new.c1) == (old.c0, old.c1)
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert bool(new) == bool(old)


wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
rationals = st.one_of(st.integers(-50, 50), small, wide)
pairs = st.builds(lambda c0, c1: (CycloScalar(c0, c1), cyclo_oracle.CycloScalar(c0, c1)),
                  rationals, rationals)


@settings(max_examples=300)
@given(pairs, pairs)
def test_ring_operations_agree_with_the_fraction_oracle(x, y):
    (a, a_old), (b, b_old) = x, y
    assert_agrees(a, a_old)
    assert_agrees(a + b, a_old + b_old)
    assert_agrees(a - b, a_old - b_old)
    assert_agrees(a * b, a_old * b_old)
    assert_agrees(-a, -a_old)
    assert_agrees(a.conjugate(), a_old.conjugate())
    assert a.norm() == a_old.norm()
    assert a.is_rational() == a_old.is_rational()
    assert (a == b) == (a_old == b_old)
    if b:
        assert_agrees(a / b, a_old / b_old)
        assert_agrees(b.inverse(), b_old.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@settings(max_examples=200)
@given(pairs, rationals)
def test_mixed_operations_agree_with_the_fraction_oracle(x, r):
    a, a_old = x
    assert_agrees(a + r, a_old + r)
    assert_agrees(r + a, r + a_old)
    assert_agrees(a - r, a_old - r)
    assert_agrees(r - a, r - a_old)
    assert_agrees(a * r, a_old * r)
    assert_agrees(r * a, r * a_old)
    if r:
        assert_agrees(a / r, a_old / r)
    if a:
        assert_agrees(r / a, r / a_old)
    assert (a == r) == (a_old == r)
    assert (r == a) == (r == a_old)
    assert_agrees(CycloScalar.coerce(r), cyclo_oracle.CycloScalar.coerce(r))


@settings(max_examples=100)
@given(pairs, st.integers(-6, 6))
def test_powers_agree_with_the_fraction_oracle(x, e):
    a, a_old = x
    if e < 0 and not a:
        with pytest.raises(ZeroDivisionError):
            a ** e
        return
    assert_agrees(a ** e, a_old ** e)


@given(rationals)
def test_rational_values_equal_and_hash_as_fractions(r):
    a = CycloScalar(r)
    assert a == r and r == a
    assert hash(a) == hash(Fraction(r))
    assert a.to_fraction() == r
    assert a in {Fraction(r)} and Fraction(r) in {a}
    assert a != r + 1 and a != CycloScalar(r, 1)


def test_zero_and_units_are_canonical():
    for x in (CycloScalar(), CycloScalar(0, 0), ZETA - ZETA, CycloScalar(Fraction(2, 6), 0),
              CycloScalar(Fraction(1, 2), Fraction(1, 2)), Q3, Q3 ** -1):
        assert_canonical(x)
    assert CycloScalar(Fraction(1, 2), Fraction(1, 2))._t == (1, 1, 2)
    assert (ZETA - ZETA)._t == (0, 0, 1)
    assert (CycloScalar(Fraction(2, 3), Fraction(4, 3)) * 3)._t == (2, 4, 1)


def test_arithmetic_builds_no_fraction(monkeypatch):
    a = CycloScalar(Fraction(3, 7), Fraction(-2, 5))
    b = CycloScalar(4, -1)

    def no_fraction(*args):
        raise AssertionError("Fraction built inside CycloScalar arithmetic")

    monkeypatch.setattr(cyclo, "Fraction", no_fraction)
    for x in (a + b, a - b, a * b, a / b, b / a, a.inverse(), a ** -3, b ** 5,
              a.conjugate(), 2 * a, a + 1, 1 - a, 3 / b, a / 5, -a):
        assert_canonical(x)
    assert bool(a) and b != a and b != 4 and not (a - a)


@pytest.mark.parametrize("x", [ZETA, Q3, CycloScalar(Fraction(3, 7), Fraction(-2, 5)),
                               CycloScalar(Fraction(-1, 2)), CycloScalar(0)])
def test_pickle_and_copy_round_trip(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y == x and y._t == x._t and hash(y) == hash(x)
        assert_canonical(y)
        with pytest.raises(AttributeError):
            y._t = (1, 0, 1)
    assert pickle.loads(pickle.dumps([x, ZETA])) == [x, ZETA]


@pytest.mark.parametrize("make", [
    lambda: CycloScalar(0.1),
    lambda: CycloScalar(1, 0.5),
    lambda: CycloScalar("1/2"),
    lambda: CycloScalar.coerce(0.25),
    lambda: CycloScalar.coerce(1j),
    lambda: ZETA * 0.5,
    lambda: 0.5 + ZETA,
    lambda: ZETA - 0.5,
    lambda: ZETA / 2.0,
])
def test_floats_are_refused(make):
    with pytest.raises(TypeError):
        make()


def test_immutable():
    with pytest.raises(AttributeError):
        ZETA._t = (1, 0, 1)
    with pytest.raises(AttributeError):
        ZETA.c0 = 1
