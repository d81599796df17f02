from collections import Counter

import pytest
from brute_oracles import brute_genfun_U

from asmpp.asm import asm_count_formula, genfun_doubly_refined
from asmpp.nilp import (
    Nilp,
    enumerate_nilps,
    extra_step,
    genfun_U,
    involution_g,
    involution_h,
    u_statistic,
)


def test_counts():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_nilps(n)) == asm_count_formula(n)


def test_count_size7():
    assert sum(1 for _ in enumerate_nilps(7)) == 218348


def test_size1():
    objs = list(enumerate_nilps(1))
    assert len(objs) == 1
    assert objs[0].steps == ("",) and objs[0].extra == ("D",)
    # the one bundle with no vertical step anywhere
    assert u_statistic(objs[0], 0) == 0


def test_size2_statistics():
    objs = list(enumerate_nilps(2))
    assert len(objs) == 2
    stats = sorted((u_statistic(p, 0), u_statistic(p, 1)) for p in objs)
    assert stats == [(0, 1), (1, 0)]


def test_extra_step_rules():
    p = extra_step(["", "V"])   # path 1 vertical, ends x=1
    assert p.extra == ("D", "D") and p.final_x(1) == 2
    p = extra_step(["", "D"])   # path 1 diagonal, ends x=2
    assert p.extra == ("D", "V") and p.final_x(1) == 2
    # consecutive finals always differ by an odd number
    for n in range(1, 6):
        for p in enumerate_nilps(n):
            finals = [p.final_x(t) for t in range(n)]
            assert finals[0] == 1
            assert all((b - a) % 2 == 1 for a, b in zip(finals, finals[1:]))


def test_validation():
    with pytest.raises(ValueError):
        Nilp(["", "D", "VV"])   # path 1 diagonal collides with path 2 at (2, 0)
    with pytest.raises(ValueError):
        Nilp(["", "X"])
    with pytest.raises(ValueError):
        Nilp(["", "VV"])        # wrong length


def test_u_statistic_bounds_and_all_diagonal():
    p = Nilp(["", "D", "DD"])
    assert u_statistic(p, 0) == 1  # path 1 gets a vertical extra
    for p in enumerate_nilps(3):
        with pytest.raises(ValueError):
            u_statistic(p, 4)
        with pytest.raises(ValueError):
            u_statistic(p, -1)


def test_genfun_examples():
    g3 = genfun_U(3, 0, 1)
    assert g3.coeffs == {(0, 2): 1, (1, 1): 1, (2, 0): 1, (1, 2): 1,
                         (2, 1): 1, (0, 1): 1, (1, 0): 1}
    assert genfun_U(2, 0, 1).coeffs == {(1, 0): 1, (0, 1): 1}
    assert genfun_U(3, 0, 2) == genfun_U(3, 0, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_dp_matches_the_brute_sum_for_every_index_pair(n):
    for i in range(n + 1):
        for j in range(n + 1):
            assert genfun_U(n, i, j) == brute_genfun_U(n, i, j), (i, j)


def test_genfun_rejects_bad_arguments():
    with pytest.raises(ValueError, match="statistic indices"):
        genfun_U(3, 0, 4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        genfun_U(0, 0, 0)


def test_main_theorem_small():
    for n in range(1, 6):
        assert genfun_U(n, 0, 1) == genfun_doubly_refined(n, "tilde")


def test_involution_g():
    for n in (3, 4):
        objs = list(enumerate_nilps(n))
        for k in range(1, n - 1):
            for p in objs:
                q = involution_g(p, k)
                q.validate()
                assert involution_g(q, k) == p
                assert u_statistic(q, 0) == u_statistic(p, 0)
                assert u_statistic(q, k) == u_statistic(p, k + 1)
                assert u_statistic(q, k + 1) == u_statistic(p, k)
    with pytest.raises(ValueError):
        involution_g(next(enumerate_nilps(3)), 2)


def test_g_fixed_points_exist():
    fixed = [p for p in enumerate_nilps(3) if involution_g(p, 1) == p]
    assert fixed  # islands with equal mixed-step counts are fixed


def test_g_multiset_consequence():
    objs = list(enumerate_nilps(4))
    for i in range(1, 4):
        c1 = Counter((u_statistic(p, 0), u_statistic(p, i)) for p in objs)
        c2 = Counter((u_statistic(p, 0), u_statistic(p, i + 1)) for p in objs)
        assert c1 == c2


def test_involution_h():
    for n in range(1, 5):
        for p in enumerate_nilps(n):
            q = involution_h(p)
            q.validate()
            assert involution_h(q) == p
            if n >= 2:
                assert q.steps[1] == p.steps[1]
                assert q.extra[1] == p.extra[1]
            assert u_statistic(q, 0) == (n - 1) - u_statistic(p, 1)
            assert u_statistic(q, 1) == (n - 1) - u_statistic(p, 0)
            for j in range(2, n + 1):
                assert u_statistic(q, j) == u_statistic(p, j)


def test_h_count_identity():
    # doubly refined counts with the first index flipped through h
    for n in (3, 4):
        objs = list(enumerate_nilps(n))
        for i in range(2, n + 1):
            c0 = Counter((u_statistic(p, 0), u_statistic(p, i)) for p in objs)
            c1 = Counter(((n - 1) - u_statistic(p, 1), u_statistic(p, i))
                         for p in objs)
            assert c0 == c1


def test_statistic_index_independence():
    for n in range(1, 8):
        base = genfun_U(n, 0, 1)
        for i in range(2, n + 1):
            assert genfun_U(n, 0, i) == base


def test_json_shape():
    p = Nilp(["", "D", "VD"])
    d = p.to_json_dict()
    assert d == {"paths": [{"steps": "", "extra": "D"},
                           {"steps": "D", "extra": "V"},
                           {"steps": "VD", "extra": "V"}]}
