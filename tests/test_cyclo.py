from fractions import Fraction

from hypothesis import given, settings, strategies as st

from asmpp.algebra import CycloScalar, ZETA, Q3, Q3_HALF, Q3_NEG_HALF


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


small = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
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
