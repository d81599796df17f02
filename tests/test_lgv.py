from fractions import Fraction

import pytest

from asmpp.algebra.poly import MultiPoly
from asmpp.asm import asm_count_formula, genfun_doubly_refined
from asmpp.genpoly import GenPoly
from asmpp.lgv import (
    elementary_symmetric,
    endpoint_sequences,
    lgv_genfun,
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


def test_matches_brute_force_polynomials():
    for n in range(1, 7):
        assert lgv_genfun_xy(n) == genfun_doubly_refined(n, "tilde")
    assert lgv_genfun_xy(3) == genfun_U(3, 0, 1)


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


def test_genpoly_from_poly():
    counts = GenPoly.from_poly(3, 5)
    assert counts.coeffs == {(0, 0): 5}
    assert GenPoly.from_poly(3, 0).coeffs == {}
    poly = MultiPoly(("y", "x"), {(2, 1): 3, (0, 0): Fraction(4)})
    counts = GenPoly.from_poly(3, poly)
    assert counts.coeffs == {(1, 2): 3, (0, 0): 4}
    assert all(type(c) is int for c in counts.coeffs.values())
    half = MultiPoly(("x", "y"), {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        GenPoly.from_poly(1, half)
    with pytest.raises(ValueError):
        GenPoly.from_poly(1, Fraction(1, 2))
