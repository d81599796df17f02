from fractions import Fraction
from random import Random

from asmpp.algebra import (
    CycloScalar,
    MultiPoly,
    determinant,
    determinant_cofactor,
)


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


def test_polynomial_entries_fraction_free():
    xy = ("x", "y")
    x = MultiPoly.variable(xy, "x")
    y = MultiPoly.variable(xy, "y")
    m = [[x + y, x * y, 1 + x], [y, x ** 2, y ** 2 + 1], [x, 1 + y, x * y + 3]]
    assert determinant(m) == determinant_cofactor(m)

