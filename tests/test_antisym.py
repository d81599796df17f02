from fractions import Fraction
from random import Random

import pytest

from asmpp.antisym import (
    SingularSampleError,
    bn_brute,
    bn_closed,
    fbar_cauchy,
    fbar_det,
    h1,
    hq,
    kernel_f,
    sample_points,
)
from brute_oracles import bn_permutation_sum


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
