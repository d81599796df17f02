from fractions import Fraction
from random import Random

import pytest

from asmpp.algebra import (
    ContourSideError,
    MultiPoly,
    TruncatedSeries,
    WindowMismatchError,
    geometric_mul,
    residue_at_zero,
)
from asmpp.algebra.cyclo import Q3
from asmpp.genpoly import GenPoly

XY = ("x", "y")


def xvar():
    return MultiPoly.variable(XY, "x")


def yvar():
    return MultiPoly.variable(XY, "y")


def test_align_adds_drops_and_reorders_variables():
    p = MultiPoly(("x", "u"), {(2, 0): 3, (1, 0): -1})
    assert p.align(("x", "u")) is p
    assert p.align(("y", "x", "u")).terms == {(0, 2, 0): 3, (0, 1, 0): -1}
    assert p.align(("x",)).terms == {(2,): 3, (1,): -1}
    assert p.align(("y", "x")) == MultiPoly(("y", "x"), {(0, 2): 3, (0, 1): -1})
    with pytest.raises(ValueError, match="x is in use"):
        p.align(("u", "y"))


def test_eval_examples():
    assert GenPoly.from_poly(xvar() + yvar()).evaluate(1, 1) == 2
    assert GenPoly.from_poly(xvar() ** 2 * yvar()).evaluate(2, 3) == 12
    assert GenPoly.from_poly(xvar() ** 2 + xvar() + 1).evaluate(Q3, 0) == 0


def test_eval_zero_polynomial():
    assert GenPoly.from_poly(MultiPoly(XY)).evaluate(Fraction(1, 3), 2) == 0
    assert GenPoly.from_poly(MultiPoly.constant(XY, 5)).evaluate(Fraction(1, 3), 2) == 5


def test_eval_horner_matches_naive():
    rng = Random(0)
    for _ in range(25):
        terms = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
                 for _ in range(6)}
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        naive = sum(c * x0 ** i * y0 ** j for (i, j), c in terms.items())
        assert GenPoly.from_poly(MultiPoly(XY, terms)).evaluate(x0, y0) == naive


def test_poly_exact_division():
    p = (xvar() + yvar()) * (xvar() - yvar()) * (1 + xvar() * yvar())
    q = p.exact_div(xvar() + yvar())
    assert q * (xvar() + yvar()) == p
    with pytest.raises(ValueError):
        (xvar() ** 2 + yvar()).exact_div(xvar() + 1)


def test_series_mul_examples():
    w = [(0, 4)]
    one_plus = TruncatedSeries(("u",), w, {(0,): 1, (1,): 1})
    one_minus = TruncatedSeries(("u",), w, {(0,): 1, (1,): -1})
    assert (one_plus * one_minus).terms == {(0,): 1, (2,): -1}

    w = [(-2, 4)]
    a = TruncatedSeries(("u",), w, {(-1,): 1})
    b = TruncatedSeries(("u",), w, {(2,): 1})
    assert (a * b).terms == {(1,): 1}

    w2 = [(0, 2), (0, 2)]
    s = TruncatedSeries(("u1", "u2"), w2, {(0, 0): 1, (1, 1): 1})
    sq = s * s
    assert sq.terms == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_series_window_mismatch():
    a = TruncatedSeries(("u",), [(0, 3)], {(0,): 1})
    b = TruncatedSeries(("u",), [(0, 4)], {(0,): 1})
    with pytest.raises(WindowMismatchError):
        a * b


def test_series_truncation_drops_outside():
    w = [(0, 2)]
    s = TruncatedSeries(("u",), w, {(1,): 1, (2,): 1})
    assert (s * s).terms == {(2,): 1}


def test_geometric_examples():
    u = MultiPoly.variable(("u",), "u")
    one = TruncatedSeries.constant(("u",), [(0, 3)], 1)
    g = geometric_mul(one, u, ("u",))
    assert g.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}

    uy = ("u", "y")
    uu, yy = MultiPoly.variable(uy, "u"), MultiPoly.variable(uy, "y")
    g2 = geometric_mul(TruncatedSeries.constant(uy, [(0, 2), (0, None)], 1),
                       uu * yy - uu, ("u",))
    # 1 - (1-y)u + (1-y)^2 u^2
    assert g2.terms == {(0, 0): 1, (1, 0): -1, (1, 1): 1,
                        (2, 0): 1, (2, 1): -2, (2, 2): 1}

    u12 = ("u1", "u2")
    prod = MultiPoly.variable(u12, "u1") * MultiPoly.variable(u12, "u2")
    g3 = geometric_mul(TruncatedSeries.constant(u12, [(0, 2), (0, 2)], 1), prod, u12)
    assert g3.terms == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_geometric_rejects_constant_term():
    u = MultiPoly.variable(("u",), "u")
    with pytest.raises(ContourSideError):
        geometric_mul(TruncatedSeries.constant(("u",), [(0, 3)], 1), 1 + u, ("u",))


def test_geometric_inverts_one_minus_g():
    # (1/(1-g)) * (1-g) == 1 up to the window, for random positive-valuation g
    rng = Random(1)
    uvars = ("u1", "u2")
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(e) == 0:
                continue
            terms[e] = Fraction(rng.randint(-3, 3))
        g = MultiPoly(uvars, terms)
        if not g:
            continue
        window = [(0, 4), (0, 4)]
        expansion = geometric_mul(TruncatedSeries.constant(uvars, window, 1), g, uvars)
        back = expansion.mul_poly(1 - g)
        # agreement with 1 on total degree <= 4 (window edges may truncate)
        for exps, coeff in back.terms.items():
            if sum(exps) <= 4:
                assert coeff == (1 if exps == (0, 0) else 0), (g, exps)


def test_residue_examples_and_linearity():
    w = [(-2, 3)]
    f = TruncatedSeries(("v",), w, {(-1,): 1})
    assert residue_at_zero(f, "v").terms == {(): 1}
    f = TruncatedSeries(("v",), w, {(-2,): 1, (-1,): 1})  # (1+v)/v^2
    assert residue_at_zero(f, "v").terms == {(): 1}
    f = TruncatedSeries(("v",), w, {(0,): 1, (1,): 1})  # 1 + v
    assert not residue_at_zero(f, "v")

    rng = Random(2)
    for _ in range(20):
        fa = TruncatedSeries(("v",), w, {(rng.randint(-2, 3),): Fraction(rng.randint(-5, 5))
                                         for _ in range(3)})
        fb = TruncatedSeries(("v",), w, {(rng.randint(-2, 3),): Fraction(rng.randint(-5, 5))
                                         for _ in range(3)})
        al, be = Fraction(3, 2), Fraction(-7, 5)
        lhs = residue_at_zero(fa * _constant(fa, al) + fb * _constant(fb, be), "v")
        ra, rb = residue_at_zero(fa, "v"), residue_at_zero(fb, "v")
        rhs = ra * _constant(ra, al) + rb * _constant(rb, be)
        assert lhs == rhs


def _constant(series, value):
    return TruncatedSeries.constant(series.vars, series.window, value)
