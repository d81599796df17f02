"""Acceptance criteria, one test per criterion.

Every comparison is exact (integer/rational/cyclotomic equality, no
tolerances); each criterion also carries a wall-clock budget and prints a
pass line with its timing.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction
from functools import lru_cache
from random import Random

from brute_oracles import brute_doubly_refined, brute_genfun_U, genpoly_value
from schur_oracles import catalan

from asmpp import antisym, contour
from asmpp.algebra.cyclo import ZETA
from asmpp.asm import asm_count_formula, enumerate_asms, genfun_doubly_refined
from asmpp.lgv import lgv_genfun_xy
from asmpp.nilp import enumerate_nilps, genfun_U, involution_g, involution_h, u_statistic
from asmpp.schur import (
    dyck_specializations,
    random_distinct_rationals,
    schur_staircase,
    verify_dyck_values,
    zprime_residue_sum,
)
from asmpp.sixvertex import refined_from_Z, zn_normalized
from asmpp.tsscpp import mrr_u_statistic, mrr_u_statistic_upper_left, nilp_to_tsscpp


class Budget:
    def __init__(self, criterion, limit_seconds):
        self.criterion = criterion
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.criterion} ({elapsed:.2f}s, "
              f"budget {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s budget"
            )
        return False


@lru_cache(maxsize=None)
def brute_tilde(n):
    return brute_doubly_refined(n, "tilde")


@lru_cache(maxsize=None)
def brute_paths(n):
    return brute_genfun_U(n, 0, 1)


SEVEN_TERMS = {(0, 2): 1, (0, 1): 1, (1, 2): 1, (1, 0): 1,
               (1, 1): 1, (2, 1): 1, (2, 0): 1}


def test_criterion_1_asm_counts():
    with Budget(1, 5):
        assert [asm_count_formula(n) for n in range(1, 7)] == \
            [1, 2, 7, 42, 429, 7436]
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_asms(n)) == asm_count_formula(n)


def test_criterion_2_size3_polynomials():
    with Budget(2, 1):
        assert brute_tilde(3).coeffs == SEVEN_TERMS
        assert brute_paths(3).coeffs == SEVEN_TERMS


def test_criterion_3_main_theorem_and_lgv():
    with Budget(3, 120):
        for n in range(1, 7):
            assert brute_tilde(n) == brute_paths(n), n
            assert lgv_genfun_xy(n) == brute_tilde(n), n


def test_criterion_4_integral_routes():
    with Budget(4, 300):
        for n in range(1, 6):
            assert contour.integral_A(n) == brute_tilde(n), n
            assert contour.integral_U(n, "raw") == brute_paths(n), n
            assert contour.integral_U(n, "after-u1") == brute_paths(n), n


def test_criterion_5_interpolation_independence():
    with Budget(5, 300):
        rng = Random(2024)
        for n in range(1, 6):
            base = contour.integral_I(n, [Fraction(0)] * (n - 1))
            assert base == brute_tilde(n), n
            assert contour.integral_I(n, [contour.a_profile_y1y()] * (n - 1)) == base
            for _ in range(3):
                avec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(n - 1)]
                assert contour.integral_I(n, avec) == base, (n, avec)


def test_criterion_6_ballot_specializations():
    with Budget(6, 30):
        total = 0
        for n in range(1, 6):
            checks = verify_dyck_values(n)
            assert all(c["pass"] for c in checks), n
            total += len(checks)
        assert total == sum(catalan(n) for n in range(1, 6)) == 64


def test_criterion_7_residue_sum_equals_schur():
    with Budget(7, 60):
        rng = Random(777)
        for n in range(1, 4):
            for _ in range(20):
                pts = random_distinct_rationals(rng, 2 * n)
                assert zprime_residue_sum(n, pts) == schur_staircase(n, pts), n


def test_criterion_8_six_vertex_consistency():
    with Budget(8, 120):
        rng = Random(88)
        for n in range(1, 4):
            for _ in range(10):
                s = random_distinct_rationals(rng, 2 * n)
                s = [v if v else Fraction(1, 17) for v in s]
                z = [v * v for v in s]
                assert zn_normalized(n, z, ZETA) == schur_staircase(n, z), n
        for n in range(1, 5):
            tilde = brute_tilde(n)
            rev = genfun_doubly_refined(n, "reversed")
            for _ in range(10):
                t = Fraction(rng.randint(-13, 13), rng.randint(1, 13))
                u = Fraction(rng.randint(-13, 13), rng.randint(1, 13))
                assert refined_from_Z(n, t, u, "tilde") == genpoly_value(tilde, t, u)
                assert refined_from_Z(n, t, u, "reversed") == genpoly_value(rev, t, u)


def test_criterion_9_involutions_and_array_statistics():
    with Budget(9, 60):
        for n in range(1, 5):
            objs = list(enumerate_nilps(n))
            for k in range(1, n - 1):
                for p in objs:
                    assert involution_g(involution_g(p, k), k) == p
            for p in objs:
                assert involution_h(involution_h(p)) == p
            base = brute_paths(n)
            for i in range(2, n + 1):
                assert genfun_U(n, 0, i) == base, (n, i)
            from collections import Counter
            for i in range(2, n + 1):
                c0 = Counter((u_statistic(p, 0), u_statistic(p, i)) for p in objs)
                c1 = Counter(((n - 1) - u_statistic(p, 1), u_statistic(p, i))
                             for p in objs)
                assert c0 == c1, (n, i)
            for p in objs:
                a = nilp_to_tsscpp(p)
                for k in range(1, n + 2):
                    assert mrr_u_statistic(a, k) == mrr_u_statistic_upper_left(a, k)
                for k in range(1, n + 1):
                    assert mrr_u_statistic(a, k) == u_statistic(p, k), (n, k)


def test_criterion_10_antisymmetrization():
    with Budget(10, 300):
        rng = Random(1010)
        # n = 9 is out of the n!-term sum's reach (9! terms per sample)
        for n in [*range(1, 7), 9]:
            done = 0
            while done < (10 if n <= 6 else 3):
                w = antisym.sample_points(rng, n)
                z = antisym.sample_points(rng, n, forbid=set(w))
                r = Fraction(rng.randint(2, 9), rng.randint(1, 9))
                if abs(r) == 1:
                    continue
                try:
                    b = antisym.bn_brute(n, w, z, r)
                    c = antisym.bn_closed(n, w, z, r)
                except antisym.SingularSampleError:
                    continue
                assert b == c, (n, w, z, r)
                done += 1
        for n in range(1, 5):
            done = 0
            while done < 10:
                w = antisym.sample_points(rng, n)
                z = antisym.sample_points(rng, n, forbid=set(w))
                try:
                    assert antisym.fbar_det(n, w, z) == antisym.fbar_cauchy(n, w, z)
                except antisym.SingularSampleError:
                    continue
                done += 1
        for n in range(1, 5):
            rep = contour.zeilid_check(n, 1, contour.phi_bilinear(n))
            assert rep["pass"], (n, rep)
            for _ in range(3):
                shape = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
                rep = contour.zeilid_check(n, 1, contour.monomial_symmetric(n, shape))
                assert rep["pass"], (n, shape)
