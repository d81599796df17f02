from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from asmpp import contour
from asmpp.algebra.poly import MultiPoly
from asmpp.algebra.series import (
    ContourSideError,
    TruncatedSeries,
    geometric_mul,
    residue_at_zero,
)
from asmpp.asm import genfun_doubly_refined
from asmpp.contour import (
    IntegrandSpec,
    a_profile_y1y,
    even_partition_sum_check,
    homogeneous_limit_check,
    integral_A,
    integral_I,
    integral_U,
    is_symmetric,
    iterated_residue,
    monomial_symmetric,
    phi_bilinear,
    vandermonde_antisym_identity,
    zeilid_check,
)
from asmpp.nilp import genfun_U


def test_iterated_residue_basics():
    spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=())
    assert iterated_residue(spec) == 1

    spec = IntegrandSpec(("u1", "u2"), {"u1": 2, "u2": 2}, coeff_vars=())
    spec.add_poly(MultiPoly(("u1", "u2"), {(0, 1): 1, (1, 0): -1}))
    assert iterated_residue(spec) == 0


def test_iterated_residue_rejects_bad_geometric():
    spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=())
    spec.add_geom(MultiPoly.constant(("u1",), 1) + MultiPoly.variable(("u1",), "u1"))
    with pytest.raises(ContourSideError):
        iterated_residue(spec)


def test_integral_A_examples():
    assert integral_A(1).coeffs == {(0, 0): 1}
    assert integral_A(2).coeffs == {(1, 0): 1, (0, 1): 1}
    assert integral_A(3).coeffs == {(0, 2): 1, (0, 1): 1, (1, 2): 1, (1, 0): 1,
                                    (1, 1): 1, (2, 1): 1, (2, 0): 1}
    g4 = integral_A(4)
    assert g4.total() == 42
    assert g4 == genfun_doubly_refined(4, "tilde")


def test_integral_U_examples():
    assert integral_U(1, "raw").coeffs == {(0, 0): 1}
    assert integral_U(1, "after-u1").coeffs == {(0, 0): 1}
    assert integral_U(2, "raw").coeffs == {(1, 0): 1, (0, 1): 1}
    for n in (2, 3, 4):
        raw = integral_U(n, "raw")
        after = integral_U(n, "after-u1")
        assert raw == after == genfun_U(n, 0, 1)
    with pytest.raises(ValueError):
        integral_U(2, "sideways")


def test_integral_I_profiles():
    for n in (1, 2, 3):
        tilde = genfun_doubly_refined(n, "tilde")
        assert integral_I(n, [Fraction(0)] * (n - 1)) == tilde
        assert integral_I(n, [a_profile_y1y()] * (n - 1)) == genfun_U(n, 0, 1)
        rnd = [Fraction(3, 7), Fraction(-2, 5)][: n - 1]
        assert integral_I(n, rnd) == tilde
    with pytest.raises(ValueError):
        integral_I(3, [Fraction(0)])


def test_order_independence():
    base_a = integral_A(3)
    for order in permutations(("u2", "u3")):
        assert integral_A(3, order=list(order)) == base_a
    base_u = integral_U(3, "raw")
    for order in permutations(("u1", "u2", "u3")):
        assert integral_U(3, "raw", order=list(order)) == base_u


def test_window_regression_guard():
    # widening the declared window must not change any result
    for n in (2, 3, 4):
        assert integral_A(n, hi=2 * n) == integral_A(n, hi=2 * n + 2)
        assert integral_U(n, "raw", hi=2 * n) == integral_U(n, "raw", hi=2 * n + 2)


def test_zeilid():
    for n in (1, 2, 3):
        rep = zeilid_check(n, 1, phi_bilinear(n))
        assert rep["pass"], rep
    rep = zeilid_check(2, 1, monomial_symmetric(2, (2, 1)))
    assert rep["pass"]
    # constant phi
    rep = zeilid_check(2, 1, MultiPoly.constant(("u1", "u2"), Fraction(1)))
    assert rep["pass"]
    # n=1: both sides are the u^1 coefficient of phi
    rep = zeilid_check(1, 1, monomial_symmetric(1, (1,)))
    assert rep["pass"] and rep["got"] == "1"


def test_zeilid_rejects_asymmetric_phi():
    phi = MultiPoly(("u1", "u2"), {(1, 0): 1})
    assert not is_symmetric(phi, ("u1", "u2"))
    with pytest.raises(ValueError):
        zeilid_check(2, 1, phi)


def test_even_partition_sums():
    r1 = even_partition_sum_check(1, 6)
    assert r1["pass"]
    assert even_partition_sum_check(2, 6)["pass"]
    assert even_partition_sum_check(3, 8)["pass"]


def test_even_partition_base_case_series():
    # n=1: both sides are the even geometric series 1 + u^2 + u^4 + u^6
    from asmpp.contour import _even_odd_sequences
    assert _even_odd_sequences(1, 6) == [[0], [2], [4], [6]]


def test_vandermonde_antisymmetrization():
    for n in (1, 2, 3):
        assert vandermonde_antisym_identity(n)


def test_homogeneous_limit():
    for n in (1, 2, 3):
        rep = homogeneous_limit_check(n)
        assert rep["pass"], rep


# -- the packed kernel against a reference built from TruncatedSeries --------

def reference_residue(spec, order=None, hi=None):
    """iterated_residue as a loop over public TruncatedSeries operations."""
    u_vars = tuple(spec.u_vars)
    order = tuple(reversed(u_vars)) if order is None else tuple(order)
    hi = 2 * len(u_vars) if hi is None else hi
    all_vars = spec.all_vars()
    rank = {v: i for i, v in enumerate(order)}
    stages = [[] for _ in order]
    tail = []
    for kind, p in spec.factors:
        idxs = [rank[v] for v in u_vars if v in p.vars and p.degree(v) > 0]
        (stages[min(idxs)] if idxs else tail).append((kind, p))
    cap = min(hi, -1)
    starts = [-spec.denom_powers.get(v, 0) for v in u_vars] + [0] * len(spec.coeff_vars)
    window = [(s, cap) for s in starts[:len(u_vars)]] + [(0, None)] * len(spec.coeff_vars)
    series = TruncatedSeries(all_vars, window, {tuple(starts): 1})
    remaining = list(order)
    for stage, v in zip(stages, order):
        for kind, p in stage:
            if kind == "poly":
                series = series.mul_poly(p)
            else:
                series = geometric_mul(series, p, remaining)
        series = residue_at_zero(series, v)
        remaining.remove(v)
    result = MultiPoly(series.vars, series.terms)
    for _, p in tail:
        result = result * p.align(result.vars)
    return result


@pytest.fixture
def against_reference(monkeypatch):
    """Route every iterated_residue call through both evaluators."""
    specs = []

    def both(spec, order=None, hi=None):
        got = iterated_residue(spec, order=order, hi=hi)
        assert got == reference_residue(spec, order=order, hi=hi)
        specs.append(spec)
        return got

    monkeypatch.setattr(contour, "iterated_residue", both)
    return specs


def _orders_and_his(n, indices):
    for order in permutations(f"u{i}" for i in indices):
        for hi in (2 * n, 2 * n + 2, -3):
            yield list(order), hi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_reference_on_integral_routes(against_reference, n):
    rational = [Fraction(3, 7), Fraction(-2, 5), Fraction(5, 2)][: n - 1]
    for order, hi in _orders_and_his(n, range(1, n + 1)):
        integral_U(n, "raw", order=order, hi=hi)
        zeilid_check(n, Fraction(2, 3), monomial_symmetric(n, (2, 1)[:n]), order=order, hi=hi)
        if n <= 3:  # the bilinear phi and the limit forms take seconds at n = 4
            zeilid_check(n, 1, phi_bilinear(n), order=order, hi=hi)
            homogeneous_limit_check(n, order=order, hi=hi)
    for order, hi in _orders_and_his(n, range(2, n + 1)):
        integral_A(n, order=order, hi=hi)
        integral_U(n, "after-u1", order=order, hi=hi)
    for order, hi in _orders_and_his(n, range(1, n)):
        integral_I(n, [a_profile_y1y()] * (n - 1), order=order, hi=hi)
        integral_I(n, rational, order=order, hi=hi)
    assert against_reference


def test_kernel_window_edges():
    u, x = ("u1", "u2"), ("x",)
    variables = u + x

    def poly(terms):
        return MultiPoly(variables, terms)

    # u1**-3 (1+u1)**2: the u1**2 term lands exactly on exponent -1
    spec = IntegrandSpec(("u1",), {"u1": 3}, coeff_vars=())
    spec.add_poly(MultiPoly(("u1",), {(0,): 1, (1,): 2, (2,): 1}))
    assert iterated_residue(spec, hi=-1) == 1  # at the cap: kept
    assert iterated_residue(spec, hi=-2) == 0  # one past the cap: dropped

    # u1**9 overshoots a 4-bit field; it must be dropped, not carried into u2
    spec = IntegrandSpec(u, {"u1": 1, "u2": 2}, coeff_vars=x)
    spec.add_poly(poly({(0, 0, 0): 1, (9, 0, 0): 1, (0, 1, 1): 1}))
    spec.add_geom(poly({(1, 1, 1): 1}))
    assert iterated_residue(spec) == MultiPoly(x, {(1,): 1})
    assert iterated_residue(spec) == reference_residue(spec)

    # a start term already past its window: hi below -denominator power
    spec = IntegrandSpec(("u1",), {"u1": 2}, coeff_vars=())
    assert iterated_residue(spec, hi=-3) == reference_residue(spec, hi=-3) == 0

    # a denominator power of 0 puts exponent -1 outside the window
    spec = IntegrandSpec(u, {"u1": 2, "u2": 0}, coeff_vars=())
    for evaluate in (iterated_residue, reference_residue):
        with pytest.raises(ValueError, match="u2"):
            evaluate(spec)


def test_kernel_coefficient_fields_hold_high_degrees():
    # u**-3 (1 + x**300 u) / (1 - x**50 u): coefficient of u**2
    variables = ("u1", "x")
    spec = IntegrandSpec(("u1",), {"u1": 3}, coeff_vars=("x",))
    spec.add_poly(MultiPoly(variables, {(0, 0): 1, (1, 300): 1}))
    spec.add_geom(MultiPoly(variables, {(1, 50): 1}))
    expected = MultiPoly(("x",), {(100,): 1, (350,): 1})
    assert iterated_residue(spec) == reference_residue(spec) == expected


def test_kernel_refuses_to_wrap_a_coefficient_field():
    # one 2-bit coefficient field (guard bit 4) with no contour field
    with pytest.raises(OverflowError):
        contour._packed_mul({3: 1}, [(1, 1)], guard=4, contour_guard=0)


def _a_vectors(n):
    """a_1..a_{n-1} of several kinds; integral_I must not depend on them."""
    m = n - 1
    return {
        "denominators": [Fraction(k + 2, 2 * k + 3) for k in range(m)],
        "negative": [Fraction(-(2 * k + 1), k + 2) for k in range(m)],
        "unreduced": [Fraction(4, 6)] * m,
        "ints": [(-1) ** k * (k + 2) for k in range(m)],
        "mixed": [a_profile_y1y() if k % 2 else Fraction(5, k + 7) for k in range(m)],
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_integral_I_is_integer_for_every_a(n):
    tilde = genfun_doubly_refined(n, "tilde")
    for label, avec in _a_vectors(n).items():
        got = integral_I(n, avec)
        assert got == tilde, label
        assert all(type(c) is int for c in got.coeffs.values()), label


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scaled_interpolating_integrand_has_integer_factors(against_reference, n):
    # a rational a_l = p/d enters as d + d u + p u**2; the kernel and its
    # reference see integer coefficients only
    for avec in _a_vectors(n).values():
        integral_I(n, avec)
    for spec in against_reference:
        for _, factor in spec.factors:
            assert all(type(c) is int for c in factor.terms.values())


def test_integral_routes_at_n6():
    tilde = genfun_doubly_refined(6, "tilde")
    assert integral_A(6) == tilde
    assert integral_U(6, "raw") == tilde
    assert integral_U(6, "after-u1") == tilde
    rational = [Fraction(3, 7), Fraction(-2, 5), Fraction(5, 2), Fraction(-1, 3),
                Fraction(7, 4)]
    assert integral_I(6, rational) == tilde
