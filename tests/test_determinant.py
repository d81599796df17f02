from fractions import Fraction
from random import Random

import pytest

from asmpp.algebra import CycloScalar, MultiPoly, determinant
from asmpp.algebra.cyclo import pair_div, pair_mul
from asmpp.genpoly import GenPoly
from asmpp.lgv import lgv_genfun, lgv_genfun_det, lgv_genfun_xy

XY = ("x", "y")
X = MultiPoly.variable(XY, "x")
Y = MultiPoly.variable(XY, "y")


def determinant_cofactor(m):
    """Cofactor (Laplace) expansion along the first row: an oracle for
    Bareiss that shares none of its code."""
    rows = [list(r) for r in m]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * determinant_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return 0 * rows[0][0]
    return total


def test_examples():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 1
    vandermonde = [[x ** j for j in range(3)] for x in (1, 2, 3)]
    assert determinant(vandermonde) == 2  # prod_{i<j} (x_j - x_i)


def test_matches_cofactor_on_random_int_matrices():
    rng = Random(4)
    for _ in range(100):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert determinant(m) == determinant_cofactor(m)


def test_singular_and_row_swaps():
    assert determinant([[0, 1], [0, 2]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_field_entries():
    rng = Random(5)
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
         for _ in range(3)]
    assert determinant(m) == determinant_cofactor(m)
    q = CycloScalar(0, 1)
    mc = [[q ** (i + j) for j in range(3)] for i in range(3)]
    assert determinant(mc) == determinant_cofactor(mc)


def _polynomial_matrix():
    return [[X + Y, X * Y, 1 + X], [Y, X ** 2, Y ** 2 + 1], [X, 1 + Y, X * Y + 3]]


def test_polynomial_entries_fraction_free():
    m = _polynomial_matrix()
    assert determinant(m) == determinant_cofactor(m)


def test_polynomial_determinants_never_divide(monkeypatch):
    m = _polynomial_matrix()
    expected = determinant_cofactor(m)
    weights = (X, Y, 1, 1, 1, 1)
    paths = lgv_genfun(6, weights)

    def refuse(self, divisor):
        raise AssertionError("a polynomial determinant divided")

    monkeypatch.setattr(MultiPoly, "exact_div", refuse)
    assert determinant(m) == expected
    det_sum = lgv_genfun_det(6, weights)
    assert det_sum == paths
    assert GenPoly.from_poly(det_sum) == lgv_genfun_xy(6)


def test_a_singular_polynomial_matrix_gives_the_polynomial_zero():
    for m in ([[X, Y], [X, Y]], [[X + 1, 0], [0, 0]], [[X, 2 * X], [1, 2]]):
        det = determinant(m)
        assert type(det) is MultiPoly and det.vars == XY and not det


def test_mixed_int_and_polynomial_entries():
    for m in ([[1, X, 0], [Y, 2, X * Y], [0, 1, 3]], [[1, X], [0, 2]],
              [[0, 0, X], [0, 3, 5], [Y + 1, 1, 2]]):
        det = determinant(m)
        assert type(det) is MultiPoly and det.vars == XY
        assert det == determinant_cofactor(m)
    assert determinant([[1, X], [0, 2]]) == MultiPoly.constant(XY, 2)


def _int_entry(rng):
    return rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**6, 10**6)])


def _fraction_entry(rng):
    return rng.choice([0, _int_entry(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                       Fraction(rng.randint(-99, 99), rng.randint(1, 10**4))])


def _cyclo_entry(rng):
    return rng.choice([0, _fraction_entry(rng),
                       CycloScalar(_fraction_entry(rng), _fraction_entry(rng))])


def _random_matrices(rng, entry):
    """Square matrices of size 0..6: dense ones, ones whose zeros force row
    swaps, and singular ones (a zero column, or a row that is a combination
    of two others)."""
    for size in range(7):
        for _ in range(6):
            m = [[entry(rng) for _ in range(size)] for _ in range(size)]
            yield m
            if size >= 2:
                sparse = [[e if rng.randrange(5) < 2 else 0 for e in row] for row in m]
                sparse[0][0] = 0  # the first pivot is zero
                yield sparse
                col = rng.randrange(size)
                yield [[0 if j == col else e for j, e in enumerate(row)] for row in m]
            if size >= 3:
                a, b, c = rng.sample(range(size), 3)
                u, v = entry(rng), entry(rng)
                dependent = [row[:] for row in m]
                dependent[c] = [u * x + v * y for x, y in zip(m[a], m[b])]
                yield dependent


@pytest.mark.parametrize("entry", [_int_entry, _fraction_entry, _cyclo_entry])
def test_matches_cofactor_in_every_scalar_ring(entry):
    rng = Random(entry.__name__)
    seen_zero = False
    for m in _random_matrices(rng, entry):
        det = determinant(m)
        assert det == determinant_cofactor(m), m
        seen_zero |= det == 0 and len(m) > 0
    assert seen_zero


def test_zero_pivots_force_row_swaps():
    assert determinant([[0, 0, 2], [0, 3, 5], [7, 11, 13]]) == -42
    z = CycloScalar(0, 1)
    m = [[0, z, 1], [z, 0, 2], [1, Fraction(1, 2), 0]]
    assert determinant(m) == determinant_cofactor(m)
    assert determinant([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == 5 * (1 * 4 - 2 * 3)


@pytest.mark.parametrize("m, ring", [
    ([[2, 1], [1, 1]], int),
    ([[2, 4], [1, 2]], int),
    ([[Fraction(2), 1], [1, 1]], Fraction),
    ([[Fraction(1, 2), 1], [1, 2]], Fraction),
    ([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]], Fraction),
    ([[CycloScalar(2), 1], [1, 1]], CycloScalar),
    ([[CycloScalar(0, 1), 1], [Fraction(1, 3), 1]], CycloScalar),
    ([[CycloScalar(0, 1), CycloScalar(0, 2)], [1, 2]], CycloScalar),
    ([[0, 0], [0, CycloScalar(0, 1)]], CycloScalar),
    ([[5]], int),
    ([[Fraction(5, 3)]], Fraction),
    ([[CycloScalar(0, 1)]], CycloScalar),
])
def test_result_keeps_the_ring_of_the_input(m, ring):
    det = determinant(m)
    assert type(det) is ring
    assert det == determinant_cofactor(m)


def test_the_empty_matrix_is_one():
    assert determinant([]) == 1 and type(determinant([])) is int


def test_rows_are_scaled_by_their_denominators():
    # det of the scaled rows is 6 * 35 * det; one division at the end undoes it
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)
    half = CycloScalar(Fraction(1, 2), Fraction(1, 2))
    m = [[half, 1], [1, half]]
    assert determinant(m) == half * half - 1


def test_pair_arithmetic():
    rng = Random(6)
    for _ in range(200):
        a = (rng.randint(-50, 50), rng.randint(-50, 50))
        b = (rng.randint(-50, 50), rng.randint(-50, 50))
        ab = pair_mul(*a, *b)
        assert CycloScalar(*ab) == CycloScalar(*a) * CycloScalar(*b)
        if b != (0, 0):
            assert pair_div(*ab, *b) == a


@pytest.mark.parametrize("a, b", [((1, 0), (2, 0)), ((1, 0), (1, 1)), ((3, 1), (0, 2)),
                                  ((7, 5), (2, -1))])
def test_inexact_pair_division_raises(a, b):
    with pytest.raises(ValueError, match="inexact"):
        pair_div(*a, *b)
