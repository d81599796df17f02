from fractions import Fraction
from random import Random

import pytest
from brute_oracles import integral_U_residue, vandermonde_antisym_identity

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
    zeilid_check,
)
from asmpp.lgv import lgv_genfun_xy
from asmpp.nilp import genfun_U
from asmpp.verify import run_verify


def test_iterated_residue_basics():
    spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=())
    assert iterated_residue(spec) == 1

    spec = IntegrandSpec(("u1", "u2"), {"u1": 2, "u2": 2}, coeff_vars=())
    spec.add_poly(MultiPoly(("u1", "u2"), {(0, 1): 1, (1, 0): -1}))
    assert iterated_residue(spec) == 0

    # no contour variable: the factors are just multiplied
    spec = IntegrandSpec((), {}, coeff_vars=("x",))
    spec.add_poly(MultiPoly(("x",), {(0,): 1, (1,): 1}))
    assert iterated_residue(spec) == MultiPoly(("x",), {(0,): 1, (1,): 1})

    # u1**-2 u2**-1 (1 + x u1) (y**2 + 3x) / (1 - u1 u2): the contour-free
    # factor sits between contour factors and multiplies the residue x
    spec = IntegrandSpec(("u1", "u2"), {"u1": 2, "u2": 1})
    spec.add_poly(MultiPoly(("u1", "x"), {(0, 0): 1, (1, 1): 1}))
    spec.add_poly(MultiPoly(("y", "x"), {(2, 0): 1, (0, 1): 3}))
    spec.add_geom(MultiPoly(("u2", "u1"), {(1, 1): 1}))
    expected = MultiPoly(("x", "y"), {(1, 2): 1, (2, 0): 3})
    assert iterated_residue(spec) == reference_residue(spec) == expected


def test_iterated_residue_rejects_bad_geometric():
    spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=())
    spec.add_geom(MultiPoly.constant(("u1",), 1) + MultiPoly.variable(("u1",), "u1"))
    with pytest.raises(ContourSideError):
        iterated_residue(spec)

    # 1/(1 - 0) and 1/(1 - x) have no term in a contour variable
    for g, message in ((MultiPoly(("u1",)), "without contour variables"),
                       (MultiPoly(("x",), {(1,): 1}), "constant term")):
        spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=("x",))
        spec.add_poly(MultiPoly(("u1", "x"), {(0, 0): 1, (1, 1): 1}))
        spec.add_geom(g)
        with pytest.raises(ContourSideError, match=message):
            iterated_residue(spec)

    # a factor in a variable that the spec does not declare
    spec = IntegrandSpec(("u1",), {"u1": 1}, coeff_vars=("x",))
    spec.add_poly(MultiPoly(("u1", "z"), {(0, 0): 1, (1, 1): 1}))
    with pytest.raises(ValueError, match="variable z is in use"):
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
    # u1 + u2 + 2 u3: symmetric under u1 <-> u2 only
    phi = MultiPoly(("u1", "u2", "u3"), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 2})
    assert is_symmetric(phi, ("u1", "u2"))
    assert not is_symmetric(phi, ("u1", "u2", "u3"))
    with pytest.raises(ValueError):
        zeilid_check(3, 1, phi)
    # a symmetric phi over a reordered tuple: x u2 + x u1 + u2 u1**2 + u2**2 u1
    phi = MultiPoly(("x", "u2", "u1"),
                    {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 2): 1, (0, 2, 1): 1})
    assert is_symmetric(phi, ("u1", "u2"))
    assert not is_symmetric(MultiPoly(("x", "u2", "u1"), {(0, 1, 2): 1}), ("u1", "u2"))
    rep = zeilid_check(2, 1, phi)
    assert rep["pass"], rep
    same = zeilid_check(2, 1, phi.align(("u1", "u2", "x")))
    assert (rep["got"], rep["expected"]) == (same["got"], same["expected"])
    # u_vars that phi does not name: a missing name is a variable of degree 0
    assert not is_symmetric(MultiPoly(("u1",), {(1,): 1}), ("u1", "u2"))
    assert is_symmetric(MultiPoly(("x",), {(1,): 1}), ("u1", "u2"))
    assert is_symmetric(MultiPoly(("u1", "x"), {(0, 1): 1}), ("u1", "u2"))


def test_even_partition_sums():
    r1 = even_partition_sum_check(1, 6)
    assert r1["pass"]
    assert even_partition_sum_check(2, 6)["pass"]
    assert even_partition_sum_check(3, 8)["pass"]


def test_even_partition_suite_up_to_its_cap():
    # the suite's bound is 2n + 2; above n = 5 it drops below the lowest
    # degree of the Vandermonde product and both sides would be empty
    report = run_verify("even-partitions", (1, 5))
    assert report["pass"]
    assert [c["got"] for c in report["checks"]] == [
        f"{k} terms" for k in (3, 8, 24, 96, 240)]


def test_even_partition_base_case_series():
    # n=1: both sides are the even geometric series 1 + u^2 + u^4 + u^6
    from asmpp.contour import _even_odd_sequences
    assert _even_odd_sequences(1, 6) == [[0], [2], [4], [6]]


def test_vandermonde_antisymmetrization():
    for n in (1, 2, 3, 4):
        assert vandermonde_antisym_identity(n)


def test_homogeneous_limit():
    for n in (1, 2, 3):
        rep = homogeneous_limit_check(n)
        assert rep["pass"], rep


# -- the packed kernel against a reference built from TruncatedSeries --------

def reference_residue(spec):
    """iterated_residue as a loop over public TruncatedSeries operations."""
    u_vars = tuple(spec.u_vars)
    order = u_vars[::-1]
    all_vars = spec.all_vars()
    rank = {v: i for i, v in enumerate(order)}
    stages = [[] for _ in order]
    tail = []
    for kind, p in spec.factors:
        idxs = [rank[v] for v in u_vars if v in p.vars and p.degree(v) > 0]
        (stages[min(idxs)] if idxs else tail).append((kind, p))
    starts = [-spec.denom_powers.get(v, 0) for v in u_vars] + [0] * len(spec.coeff_vars)
    window = [(s, -1) for s in starts[:len(u_vars)]] + [(0, None)] * len(spec.coeff_vars)
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

    def both(spec):
        got = iterated_residue(spec)
        assert got == reference_residue(spec)
        specs.append(spec)
        return got

    monkeypatch.setattr(contour, "iterated_residue", both)
    return specs


def _residue_routes(n):
    """Every builder that evaluates its integrand with iterated_residue."""
    rational = [Fraction(3, 7), Fraction(-2, 5), Fraction(5, 2)][: n - 1]
    integral_U_residue(n, "raw")
    integral_U_residue(n, "after-u1")
    integral_I(n, [0] * (n - 1))
    integral_I(n, [a_profile_y1y()] * (n - 1))
    integral_I(n, rational)
    zeilid_check(n, Fraction(2, 3), monomial_symmetric(n, (2, 1)[:n]))
    zeilid_check(n, 1, phi_bilinear(n))
    homogeneous_limit_check(n)
    assert even_partition_sum_check(n, 2 * n + 2)["pass"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_reference_on_integral_routes(against_reference, n):
    _residue_routes(n)
    assert against_reference


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_reads_factors_without_multipoly_arithmetic(against_reference, monkeypatch, n):
    # the kernel reads each factor's own terms: no factor is re-expressed
    # over the spec's variables and no product is taken as a MultiPoly
    _residue_routes(n)
    expected = [reference_residue(spec) for spec in against_reference]

    def refuse(*args, **kwargs):
        raise AssertionError("MultiPoly method called")

    for name in ("align", "degree", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    assert [iterated_residue(spec) for spec in against_reference] == expected


def test_kernel_window_edges():
    u, x = ("u1", "u2"), ("x",)
    variables = u + x

    def poly(terms):
        return MultiPoly(variables, terms)

    # u1**-3 (1+u1)**2: the u1**2 term lands exactly on exponent -1
    spec = IntegrandSpec(("u1",), {"u1": 3}, coeff_vars=())
    spec.add_poly(MultiPoly(("u1",), {(0,): 1, (1,): 2, (2,): 1}))
    assert iterated_residue(spec) == reference_residue(spec) == 1  # at the cap: kept

    # u1**9 overshoots a 4-bit field; it must be dropped, not carried into u2
    spec = IntegrandSpec(u, {"u1": 1, "u2": 2}, coeff_vars=x)
    spec.add_poly(poly({(0, 0, 0): 1, (9, 0, 0): 1, (0, 1, 1): 1}))
    spec.add_geom(poly({(1, 1, 1): 1}))
    assert iterated_residue(spec) == MultiPoly(x, {(1,): 1})
    assert iterated_residue(spec) == reference_residue(spec)

    # a denominator power of 0 leaves no exponent -1 to take
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


@pytest.mark.parametrize("n", range(1, 8))
def test_cauchy_binet_routes_match_their_residue_oracles(n):
    assert integral_A(n) == integral_I(n, [0] * (n - 1))
    if n <= 6:
        assert integral_U(n, "raw") == integral_U_residue(n, "raw")
    assert integral_U(n, "after-u1") == integral_U_residue(n, "after-u1")


@pytest.mark.parametrize("n", [7, 8, 9, 12])
def test_cauchy_binet_routes_above_the_residue_range(n):
    tilde = genfun_doubly_refined(n, "tilde")
    assert integral_A(n) == integral_U(n, "raw") == integral_U(n, "after-u1") == tilde


def test_cauchy_binet_routes_take_no_residue(monkeypatch):
    def refuse(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return raiser

    monkeypatch.setattr(contour, "iterated_residue", refuse("iterated_residue"))
    for name in ("__mul__", "__rmul__", "__pow__", "align"):
        monkeypatch.setattr(MultiPoly, name, refuse(f"MultiPoly.{name}"))
    for n in (1, 2, 5):
        integral_A(n)
        integral_U(n, "raw")
        integral_U(n, "after-u1")
        lgv_genfun_xy(n)
    with pytest.raises(AssertionError, match="iterated_residue"):
        integral_I(2, [0])


def test_a_entry_is_a_coefficient_of_its_series():
    # 1/(1 - (y-1) u) up to u**(2k+1), past the highest m tested
    uxy = ("u", "x", "y")
    u, x, y = (MultiPoly.variable(uxy, v) for v in uxy)
    for k in range(9):
        geometric = sum(((y - 1) * u) ** j for j in range(2 * k + 2))
        f = (1 + u) ** k * (1 + x * u) * geometric
        for m in range(2 * k + 2):
            want = {(a, b): c for (d, a, b), c in f.terms.items() if d == m}
            assert contour._a_entry(k, m) == want, (k, m)


def test_integral_routes_at_n6():
    tilde = genfun_doubly_refined(6, "tilde")
    assert integral_A(6) == tilde
    assert integral_U(6, "raw") == tilde
    assert integral_U(6, "after-u1") == tilde
    rational = [Fraction(3, 7), Fraction(-2, 5), Fraction(5, 2), Fraction(-1, 3),
                Fraction(7, 4)]
    assert integral_I(6, rational) == tilde
