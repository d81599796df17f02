from fractions import Fraction
from random import Random

import pytest

from asmpp.antisym import (
    SingularSampleError,
    bn_brute,
    bn_closed,
    fbar_cauchy,
    fbar_det,
    sample_points,
)
from brute_oracles import (
    bn_closed_fractions,
    bn_permutation_sum,
    fbar_cauchy_fractions,
    fbar_det_fractions,
    h1,
    hq,
    kernel_f,
)


def test_base_case():
    w, z = [Fraction(2, 3)], [Fraction(5, 7)]
    r = Fraction(3, 2)
    q = r * r
    expected = 1 / (h1(w[0], z[0]) * hq(w[0], z[0], q))
    assert bn_brute(1, w, z, r) == expected
    assert bn_closed(1, w, z, r) == expected
    assert kernel_f(w[0], z[0], q) == expected


def test_brute_equals_closed():
    rng = Random(21)
    for n in (1, 2, 3):
        done = 0
        while done < 10:
            w = sample_points(rng, n)
            z = sample_points(rng, n, forbid=set(w))
            r = Fraction(rng.randint(2, 9), rng.randint(1, 9))
            if abs(r) == 1:
                continue
            try:
                b = bn_brute(n, w, z, r)
                c = bn_closed(n, w, z, r)
            except SingularSampleError:
                continue
            assert b == c
            done += 1


def test_swapped_symmetric_sample_is_rejected_then_matches_nearby():
    # w = (p, p'), z = (p', p) makes h1(w_2, z_1) vanish identically: both
    # routes hit the removable singularity, which is rejected rather than
    # resolved by limits; a perturbed sample evaluates and matches.
    p, pp = Fraction(2, 5), Fraction(3, 7)
    r = Fraction(5, 3)
    with pytest.raises(SingularSampleError):
        bn_brute(2, [p, pp], [pp, p], r)
    with pytest.raises(SingularSampleError):
        bn_closed(2, [p, pp], [pp, p], r)
    w, z = [p, pp], [pp + Fraction(1, 11), p + Fraction(1, 13)]
    assert bn_brute(2, w, z, r) == bn_closed(2, w, z, r)


def test_cauchy_identity():
    rng = Random(22)
    for n in (1, 2, 3, 4):
        done = 0
        while done < 10:
            w = sample_points(rng, n)
            z = sample_points(rng, n, forbid=set(w))
            try:
                assert fbar_det(n, w, z) == fbar_cauchy(n, w, z)
            except SingularSampleError:
                continue
            done += 1


def test_singular_samples_rejected():
    with pytest.raises(SingularSampleError):
        kernel_f(Fraction(1, 2), Fraction(1, 2), Fraction(4))  # h1 = 0
    with pytest.raises(SingularSampleError):
        fbar_det(1, [Fraction(1, 2)], [Fraction(2)])  # w*z = 1


@pytest.mark.parametrize("n, count", [(1, 10), (2, 10), (3, 10), (4, 5), (5, 3), (6, 3)])
def test_subset_dp_equals_the_permutation_sum(n, count):
    rng = Random(30 + n)
    done = 0
    while done < count:
        w = sample_points(rng, n)
        z = sample_points(rng, n, forbid=set(w))
        r = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        try:
            want = bn_permutation_sum(n, w, z, r)
        except SingularSampleError:
            with pytest.raises(SingularSampleError):
                bn_brute(n, w, z, r)
            continue
        assert bn_brute(n, w, z, r) == want, (n, w, z, r)
        done += 1


@pytest.mark.parametrize("factor", ["h1", "hq"])
@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("v", range(3))
def test_each_vanishing_h_factor_is_singular(v, i, factor):
    # z_i = w_v zeroes h1(w_v, z_i); z_i = q**2 w_v zeroes hq(w_v, z_i)
    w = [Fraction(2, 3), Fraction(-3, 5), Fraction(5, 7)]
    z = [Fraction(7, 4), Fraction(-4, 9), Fraction(9, 2)]
    r = Fraction(3, 2)
    q = r * r
    assert bn_brute(3, w, z, r) == bn_permutation_sum(3, w, z, r)
    z[i] = w[v] if factor == "h1" else q * q * w[v]
    assert (h1(w[v], z[i]) if factor == "h1" else hq(w[v], z[i], q)) == 0
    with pytest.raises(SingularSampleError):
        bn_brute(3, w, z, r)
    with pytest.raises(SingularSampleError):
        bn_permutation_sum(3, w, z, r)


INT_ROUTES = [(bn_brute, bn_permutation_sum, True), (bn_closed, bn_closed_fractions, True),
              (fbar_det, fbar_det_fractions, False), (fbar_cauchy, fbar_cauchy_fractions, False)]


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularSampleError:
        return SingularSampleError


@pytest.mark.parametrize("n, count", [(1, 12), (2, 12), (3, 10), (4, 8), (5, 4), (6, 2)])
def test_int_routes_equal_their_fraction_oracles(n, count):
    rng = Random(40 + n)
    for _ in range(count):
        w = sample_points(rng, n)
        z = sample_points(rng, n, forbid=set(w))
        r = Fraction(rng.randint(2, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        for route, oracle, takes_r in INT_ROUTES:
            args = (n, w, z, r) if takes_r else (n, w, z)
            got = _outcome(route, *args)
            assert got == _outcome(oracle, *args), (route.__name__, w, z, r)
            assert got is SingularSampleError or type(got) is Fraction


def _singular_relations():
    for a in range(3):
        for b in range(3):
            yield from (("z_b=w_a", a, b), ("z_b=q^2w_a", a, b), ("w_a*z_b=1", a, b))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        yield from (("z_a*z_b=1", a, b), ("q^2w_a*w_b=1", a, b))


@pytest.mark.parametrize("relation, a, b", list(_singular_relations()))
def test_int_routes_reject_exactly_the_oracles_singular_samples(relation, a, b):
    w = [Fraction(2, 3), Fraction(-3, 5), Fraction(5, 7)]
    z = [Fraction(7, 4), Fraction(-4, 9), Fraction(9, 2)]
    r = Fraction(3, 2)
    q = r * r
    if relation == "z_b=w_a":  # h_1(w_a, z_b) = 0
        z[b] = w[a]
    elif relation == "z_b=q^2w_a":  # h_q(w_a, z_b) = 0
        z[b] = q * q * w[a]
    elif relation == "w_a*z_b=1":  # h_1(w_a, z_b) = 0
        z[b] = 1 / w[a]
    elif relation == "z_a*z_b=1":  # h_1(z_a, z_b) = 0
        z[b] = 1 / z[a]
    else:  # 1 - q^2 w_a w_b = 0
        w[b] = 1 / (q * q * w[a])
    rejected = set()
    for route, oracle, takes_r in INT_ROUTES:
        args = (3, w, z, r) if takes_r else (3, w, z)
        got = _outcome(route, *args)
        assert got == _outcome(oracle, *args), route.__name__
        if got is SingularSampleError:
            rejected.add(route.__name__)
    # every relation zeroes a factor of the closed form's denominator
    assert "bn_closed" in rejected


def _fractions_made(call):
    """The number of `Fraction` objects constructed while `call()` runs,
    arithmetic results included."""
    original = Fraction.__dict__["__new__"]
    made = 0

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        call()
    finally:
        Fraction.__new__ = original
    return made


def test_the_kernel_builds_one_fraction_per_result():
    w = [Fraction(2, 3), Fraction(-3, 5), Fraction(5, 7), Fraction(7, 2), Fraction(-2, 9)]
    z = [Fraction(7, 4), Fraction(-4, 9), Fraction(9, 2), Fraction(3, 8), Fraction(-8, 3)]
    r = Fraction(7, 3)
    assert bn_brute(5, w, z, r) == bn_closed(5, w, z, r)
    for route, args in ((bn_brute, (5, w, z, r)), (bn_closed, (5, w, z, r)),
                        (fbar_det, (5, w, z)), (fbar_cauchy, (5, w, z))):
        assert _fractions_made(lambda: route(*args)) <= 1, route.__name__
