from fractions import Fraction
from random import Random

import pytest

from asmpp.algebra import (
    ContourSideError,
    MissingVariableError,
    MultiPoly,
    Q3,
    TruncatedSeries,
    WindowMismatchError,
    geometric_mul,
    poly_eval,
    residue_at_zero,
)

XY = ("x", "y")


def xvar():
    return MultiPoly.variable(XY, "x")


def yvar():
    return MultiPoly.variable(XY, "y")


def test_eval_examples():
    assert poly_eval(xvar() + yvar(), {"x": 1, "y": 1}) == 2
    assert poly_eval(xvar() ** 2 * yvar(), {"x": 2, "y": 3}) == 12
    q = MultiPoly.variable(("q",), "q")
    assert poly_eval(q ** 2 + q + 1, {"q": Q3}) == 0


def test_eval_missing_variable():
    with pytest.raises(MissingVariableError):
        poly_eval(xvar() + yvar(), {"x": 1})


def test_eval_zero_polynomial():
    assert poly_eval(MultiPoly(XY), {}) == 0
    # unused variables need no value
    assert poly_eval(MultiPoly.constant(XY, Fraction(5, 2)), {}) == Fraction(5, 2)


def test_eval_horner_matches_naive():
    rng = Random(0)
    for _ in range(25):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9))
            for _ in range(6)
        }
        p = MultiPoly(XY, terms)
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        naive = sum(c * x0 ** e[0] * y0 ** e[1] for e, c in p.terms.items())
        assert poly_eval(p, {"x": x0, "y": y0}) == naive


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
        lhs = residue_at_zero(fa.scale(al) + fb.scale(be), "v")
        rhs = residue_at_zero(fa, "v").scale(al) + residue_at_zero(fb, "v").scale(be)
        assert lhs == rhs
