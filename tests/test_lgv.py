from fractions import Fraction
from math import comb, factorial
from random import Random

import pytest
from brute_oracles import brute_doubly_refined

from asmpp.algebra.poly import MultiPoly
from asmpp.asm import asm_count_formula, genfun_doubly_refined
from asmpp.genpoly import GenPoly
from asmpp.lgv import (
    bilinear_entry,
    elementary_symmetric,
    endpoint_sequences,
    lgv_genfun,
    lgv_genfun_det,
    lgv_genfun_xy,
    path_weight,
)
from asmpp.nilp import enumerate_nilps, genfun_U, u_statistic


def test_single_path_weight():
    tv = ("t0", "t1")
    t0 = MultiPoly.variable(tv, "t0")
    t1 = MultiPoly.variable(tv, "t1")
    assert path_weight(1, 1, [t0, t1]) == t0 + t1
    assert path_weight(1, 2, [t0, t1]) == 1 + 0 * t0
    assert path_weight(1, 4, [t0, t1]) == 0 * t0
    assert elementary_symmetric([2, 3, 5]) == [1, 10, 31, 30]


def test_endpoint_sequences():
    assert endpoint_sequences(2) == [[1]]
    assert endpoint_sequences(3) == [[1, 2], [1, 4]]
    for seq in endpoint_sequences(5):
        assert seq[0] == 1
        assert all((b - a) % 2 == 1 for a, b in zip(seq, seq[1:]))
        assert all(r <= 2 * (i + 1) + 1 for i, r in enumerate(seq))


def test_counts():
    for n in range(1, 7):
        assert lgv_genfun(n, [Fraction(1)] * n) == asm_count_formula(n)


def _weight_vectors(n):
    """The weight vectors the DP is checked on: (x, y, 1, ...) with int ones
    and with Fraction ones, integers and rationals."""
    xy = ("x", "y")
    x = MultiPoly.variable(xy, "x")
    y = MultiPoly.variable(xy, "y")
    rng = Random(n)
    return {
        "(x, y)": ([x, y] + [MultiPoly.constant(xy, 1)] * (n - 2))[:n],
        "(x, y) over Fraction": ([x, y] + [MultiPoly.constant(xy, Fraction(1))] * (n - 2))[:n],
        "integer": [k % 3 + 1 for k in range(n)],
        "fraction": [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_dp_matches_determinant_oracle(n):
    for label, weights in _weight_vectors(n).items():
        assert lgv_genfun(n, weights) == lgv_genfun_det(n, weights), label


@pytest.mark.parametrize("n", [8, 9])
def test_totals_above_the_brute_range(n):
    assert lgv_genfun(n, [1] * n) == asm_count_formula(n)


def zeilberger_refined(n, k):
    """A_{n,k} = C(n+k-2, k-1) (2n-k-1)!/(n-k)! prod_{j=0}^{n-2} (3j+1)!/(n+j)!:
    the ASMs of size n whose first row has its 1 in column k."""
    num = comb(n + k - 2, k - 1) * factorial(2 * n - k - 1)
    den = factorial(n - k)
    for j in range(n - 1):
        num *= factorial(3 * j + 1)
        den *= factorial(n + j)
    assert num % den == 0
    return num // den


def _x_marginal(poly, n):
    """The coefficients of x**0 .. x**(n-1) at y = 1."""
    marginal = [0] * n
    for (i, _), c in poly.coeffs.items():
        marginal[i] += c
    return marginal


def test_y1_marginal_is_zeilbergers_refined_count():
    # the index convention x**(k-1) <-> A_{n,k}, fixed on the brute polynomial
    for n in range(1, 7):
        want = [zeilberger_refined(n, k) for k in range(1, n + 1)]
        assert _x_marginal(brute_doubly_refined(n), n) == want
    for n in range(1, 13):
        want = [zeilberger_refined(n, k) for k in range(1, n + 1)]
        assert _x_marginal(genfun_doubly_refined(n, "tilde"), n) == want
        if n < 10:
            assert _x_marginal(lgv_genfun_xy(n), n) == want


UXY = ("u", "x", "y")


@pytest.mark.parametrize("n", range(1, 10))
def test_three_counting_routes_agree(n):
    asms = genfun_doubly_refined(n, "tilde")
    xy = [MultiPoly.variable(UXY, "x"), MultiPoly.variable(UXY, "y")]
    weights = (xy + [MultiPoly.constant(UXY, 1)] * n)[:n]
    via_ring = GenPoly.from_poly(lgv_genfun(n, weights))
    assert asms == genfun_U(n, 0, 1) == lgv_genfun_xy(n) == via_ring
    assert asms.total() == asm_count_formula(n)


def test_bilinear_entry_is_a_coefficient_of_its_product():
    u, x, y = (MultiPoly.variable(UXY, v) for v in UXY)
    for k in range(9):
        f = (1 + x * u) * (1 + y * u) * (1 + u) ** k
        for m in range(k + 5):
            want = {(a, b): c for (d, a, b), c in f.terms.items() if d == m}
            assert bilinear_entry(k, m) == want, (k, m)


def test_full_weight_vector_against_direct_count():
    # weights on every slab: compare with the direct sum over bundles
    n = 4
    tv = tuple(f"t{k}" for k in range(n))
    ts = [MultiPoly.variable(tv, v) for v in tv]
    via_det = lgv_genfun(n, ts)
    direct = MultiPoly(tv)
    for p in enumerate_nilps(n):
        direct = direct + MultiPoly(tv, {tuple(_slab_exponents(p, n)): 1})
    assert via_det == direct


def _slab_exponents(p, n):
    # slab k holds step t-k+1 of path t (k >= 1); slab 0 holds extra steps
    exps = [0] * n
    exps[0] = u_statistic(p, 0)
    for t in range(1, n):
        for step_no, ch in enumerate(p.steps[t], start=1):
            if ch == "V":
                exps[t - step_no + 1] += 1
    return exps


def test_weight_length_check():
    with pytest.raises(ValueError):
        lgv_genfun(3, [Fraction(1)] * 2)
    with pytest.raises(ValueError):
        lgv_genfun_det(3, [Fraction(1)] * 2)


def test_genpoly_from_poly():
    counts = GenPoly.from_poly(5)
    assert counts.coeffs == {(0, 0): 5}
    assert GenPoly.from_poly(0).coeffs == {}
    poly = MultiPoly(("y", "x"), {(2, 1): 3, (0, 0): Fraction(4)})
    counts = GenPoly.from_poly(poly)
    assert counts.coeffs == {(1, 2): 3, (0, 0): 4}
    assert all(type(c) is int for c in counts.coeffs.values())
    half = MultiPoly(("x", "y"), {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        GenPoly.from_poly(half)
    with pytest.raises(ValueError):
        GenPoly.from_poly(Fraction(1, 2))
    # a variable other than x and y must be unused, not read as exponent 0
    with pytest.raises(ValueError, match="variable u"):
        GenPoly.from_poly(MultiPoly(("u", "x"), {(3, 0): 5, (0, 0): 5}))
    unused = MultiPoly(("u", "x", "y"), {(0, 1, 2): 3})
    assert GenPoly.from_poly(unused).coeffs == {(1, 2): 3}
