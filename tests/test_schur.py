from fractions import Fraction
from random import Random

import pytest

from asmpp.algebra.cyclo import CycloScalar, Q3, Q3_INV
from asmpp.schur import (
    DyckSpec,
    catalan,
    dyck_specializations,
    random_distinct_rationals,
    recursion_check_q3,
    schur_staircase,
    schur_staircase_bialternant,
    staircase_shape,
    verify_dyck_values,
    wheel_check,
    zprime_residue_sum,
)


def test_staircase_shape():
    assert staircase_shape(1) == ()
    assert staircase_shape(2) == (1, 1)
    assert staircase_shape(4) == (3, 3, 2, 2, 1, 1)


def test_small_values():
    assert schur_staircase(1, [1, 1]) == 1
    assert schur_staircase(2, [1, 1, 1, 1]) == 6  # e_2 of four ones
    assert schur_staircase(2, [Q3_INV, Q3_INV, Q3, Q3]) == 3


def test_bialternant_agrees_at_distinct_points():
    rng = Random(3)
    for n in (2, 3):
        for _ in range(5):
            pts = random_distinct_rationals(rng, 2 * n)
            assert schur_staircase(n, pts) == schur_staircase_bialternant(n, pts)
    with pytest.raises(ValueError):
        schur_staircase_bialternant(2, [1, 1, 2, 3])
    assert type(schur_staircase_bialternant(0, [])) is Fraction


def test_symmetric_in_all_arguments():
    rng = Random(4)
    for n in (2, 3, 4):
        pts = random_distinct_rationals(rng, 2 * n)
        base = schur_staircase(n, pts)
        for _ in range(20):
            perm = pts[:]
            rng.shuffle(perm)
            assert schur_staircase(n, perm) == base


def test_degree_exactly_n_minus_one():
    # interpolate in the first argument through n+2 points: the coefficients
    # above degree n-1 vanish and the degree-(n-1) one does not
    rng = Random(5)
    for n in (2, 3):
        others = random_distinct_rationals(rng, 2 * n - 1)
        xs = [Fraction(k) for k in range(n + 2)]
        ys = [schur_staircase(n, [x] + others) for x in xs]
        coeffs = _interp_coeffs(xs, ys)
        assert all(c == 0 for c in coeffs[n:])
        assert coeffs[n - 1] != 0


def _interp_coeffs(xs, ys):
    k = len(xs)
    mat = [[x ** j for j in range(k)] for x in xs]
    # solve by Gaussian elimination over Fractions
    aug = [row + [y] for row, y in zip(mat, ys)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


def test_dyck_examples():
    assert [s.eps for s in dyck_specializations(1)] == [(-1, 1)]
    assert len(dyck_specializations(2)) == 2
    assert len(dyck_specializations(5)) == 42
    for n in range(1, 7):  # strictly increasing: the pinned dyck reports' order
        eps = [spec.eps for spec in dyck_specializations(n)]
        assert len(eps) == catalan(n)
        assert all(a < b for a, b in zip(eps, eps[1:]))
    with pytest.raises(ValueError):
        DyckSpec((1, -1))
    with pytest.raises(ValueError):
        DyckSpec((-1, -1))


def test_dyck_values():
    for n in (1, 2, 3, 4):
        checks = verify_dyck_values(n)
        assert len(checks) == catalan(n)
        assert all(c["pass"] for c in checks)


def test_wheel_on_staircase_and_witness_on_constant():
    for n in (2, 3):
        checks = wheel_check(lambda pts, n=n: schur_staircase(n, pts), n, 20,
                             Random(6))
        assert all(c["pass"] for c in checks)
    bad = wheel_check(lambda pts: CycloScalar(1), 2, 3, Random(6))
    assert all(not c["pass"] for c in bad)
    assert all(c["got"] == "1" for c in bad)  # witness value reported


def test_recursion():
    for n in (2, 3):
        checks = recursion_check_q3(n, 5, Random(7))
        assert all(c["pass"] for c in checks)


def test_zprime_base_case():
    rng = Random(8)
    pts = random_distinct_rationals(rng, 2)
    assert zprime_residue_sum(1, pts) == 1


def test_zprime_equals_schur():
    rng = Random(9)
    for n in (1, 2, 3):
        for _ in range(5):
            pts = random_distinct_rationals(rng, 2 * n)
            assert zprime_residue_sum(n, pts) == schur_staircase(n, pts)


def test_zprime_rejects_coincident_points():
    with pytest.raises(ValueError):
        zprime_residue_sum(2, [1, 1, 2, 3])
    with pytest.raises(ValueError):  # equal values given in different types
        zprime_residue_sum(2, [Fraction(1, 2), Q3, CycloScalar(Fraction(1, 2)), 3])


def test_difference_vanishes_near_ballot_points():
    # uniqueness corollary, probed at distinct perturbations of the ballot
    # points (the residue sum needs pairwise distinct coordinates)
    for n in (2, 3):
        for spec in dyck_specializations(n):
            pts = [p + Fraction(k + 1, 17) for k, p in enumerate(spec.point())]
            assert zprime_residue_sum(n, pts) == schur_staircase(n, pts)
