from fractions import Fraction
from random import Random

import pytest
from brute_oracles import brute_weighted_partition_sum, ice_rule_breach

from asmpp import asm, sixvertex
from asmpp.algebra.cyclo import CycloScalar, ZETA
from asmpp.asm import Asm, asm_count_formula, enumerate_asms, genfun_doubly_refined
from asmpp.schur import schur_staircase
from asmpp.sixvertex import (
    VertexGrid,
    asm_to_six_vertex,
    normalize_Z,
    refined_from_Z,
    six_vertex_to_asm,
    weighted_partition_sum,
    zn_normalized,
)


def rat(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-13, 13), rng.randint(1, 13))
        if not nonzero or v:
            return v


def test_single_vertex_is_c_type():
    g = asm_to_six_vertex(next(enumerate_asms(1)))
    assert g.types == (("c1",),)


def test_bijection_roundtrip():
    for n in range(1, 5):
        grids = set()
        for a in enumerate_asms(n):
            g = asm_to_six_vertex(a)
            grids.add(g)
            assert six_vertex_to_asm(g) == a
        assert len(grids) == asm_count_formula(n)


def test_forward_map_obeys_the_ice_rule():
    grids = [asm_to_six_vertex(a).types for n in range(1, 6) for a in enumerate_asms(n)]
    assert len(grids) == 1 + 2 + 7 + 42 + 429
    for types in grids:
        assert ice_rule_breach(types) is None, types


def test_grid_validation():
    with pytest.raises(ValueError):
        VertexGrid([["a1", "a1"], ["a1", "a1"]])  # no c vertices: breaks boundary
    with pytest.raises(ValueError, match="unknown vertex type"):
        six_vertex_to_asm(VertexGrid([["c1", "a1"], ["a1", "c3"]], validate=False))


def test_inverse_accepts_only_images_of_the_forward_map():
    # an ASM's grid with one a/b vertex read as another a/b type still has an
    # ASM's entries, but is no image; at n = 2 the anti-diagonal ASM's a1
    # read as b1 is one such grid
    assert asm_to_six_vertex(Asm([[0, 1], [1, 0]])).types == (("a1", "c1"), ("c1", "a2"))
    swaps = 0
    for n in range(2, 5):
        for a in enumerate_asms(n):
            types = asm_to_six_vertex(a).types
            for i, j in ((i, j) for i in range(n) for j in range(n) if not a.entries[i][j]):
                for other in {"a1", "a2", "b1", "b2"} - {types[i][j]}:
                    bad = [list(row) for row in types]
                    bad[i][j] = other
                    with pytest.raises(ValueError):
                        six_vertex_to_asm(VertexGrid(bad, validate=False))
                    swaps += 1
    assert swaps == 3 * 508  # every 0 entry of the 49 ASMs with 2 <= n <= 4


def test_partition_sum_n1():
    rng = Random(7)
    s = [rat(rng, True) for _ in range(2)]
    r = rat(rng, True)
    zt = weighted_partition_sum(1, s, r)
    # single configuration: one c vertex
    assert zt == (1 / (r * r) - r * r) * s[0] * s[1]
    assert normalize_Z(zt, 1, s, r) == 1


def test_partition_sum_n2_hand_expansion():
    # two configurations: c^2 b b and c^2 a a with the class weights
    rng = Random(8)
    s = [rat(rng, True) for _ in range(4)]
    r = rat(rng, True)
    q = r * r
    z = [v * v for v in s]
    c = (1 / q - q)
    a_ = lambda zr, wc: zr / r - r * wc
    b_ = lambda zr, wc: wc / r - r * zr
    w_identity = c * s[0] * s[2] * c * s[1] * s[3] * b_(z[0], z[3]) * b_(z[1], z[2])
    w_anti = c * s[0] * s[3] * c * s[1] * s[2] * a_(z[0], z[2]) * a_(z[1], z[3])
    assert weighted_partition_sum(2, s, r) == w_identity + w_anti


def test_normalized_values_at_cubic_root():
    one = CycloScalar(1)
    assert zn_normalized(1, [one] * 2, ZETA) == 1
    assert zn_normalized(2, [one] * 4, ZETA) == 6       # 3 * A_2
    assert zn_normalized(3, [one] * 6, ZETA) == 189     # 27 * A_3


def test_normalization_consistency():
    rng = Random(9)
    for n in (1, 2, 3):
        s = [rat(rng, True) for _ in range(2 * n)]
        r = rat(rng, True)
        if abs(r) == 1:
            r *= 2  # q = 1 zeroes the normalization
        brute = brute_weighted_partition_sum(n, s, r)
        assert weighted_partition_sum(n, s, r) == brute
        assert zn_normalized(n, [v * v for v in s], r) == normalize_Z(brute, n, s, r)


def brute_zn(n, s, r):
    return normalize_Z(brute_weighted_partition_sum(n, s, r), n, s, r)


def brute_zn_at_zero(n, s, r, k):
    """brute_zn with s[k] = 0, where normalize_Z cannot divide: the
    normalized sum has degree n - 1 in z_k, so it is interpolated at 0 from
    the n points s[k] = 1..n."""
    total = 0
    for m in range(1, n + 1):
        basis = Fraction(1)
        for l in range(1, n + 1):
            if l != m:
                basis *= Fraction(l * l, l * l - m * m)
        total = total + basis * brute_zn(n, s[:k] + [Fraction(m)] + s[k + 1:], r)
    return total


def test_transfer_matches_brute_oracle():
    rng = Random(15)
    for n in range(1, 6):
        for r in (Fraction(rng.randint(2, 9), rng.randint(1, 9)), ZETA):
            if r == 1:
                r = Fraction(3, 2)  # q = 1 zeroes the normalization
            s = [rat(rng, True) for _ in range(2 * n)]
            cases = [s]
            if n >= 2:
                cases.append([s[0]] + s[:n - 1] + s[n:])  # z_0 = z_1
                cases.append(s[:n + 1] + [s[n]] + s[n + 2:])  # w_0 = w_1
            for v in cases:
                assert zn_normalized(n, [x * x for x in v], r) == brute_zn(n, v, r)
            k = rng.randrange(2 * n)
            zeroed = [x * x for x in s]
            zeroed[k] = Fraction(0)
            assert zn_normalized(n, zeroed, r) == brute_zn_at_zero(n, s, r, k)


def test_n1_keeps_the_ring():
    z = [Fraction(2, 3), Fraction(-5, 7)]
    got = zn_normalized(1, z, Fraction(3, 2))
    assert type(got) is Fraction and got == 1
    got = zn_normalized(1, [CycloScalar.coerce(v) for v in z], ZETA)
    assert type(got) is CycloScalar and got == 1


def test_partition_sum_lists_no_asm(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the partition sum built an ASM or a vertex grid")

    rng = Random(16)
    s = [rat(rng, True) for _ in range(8)]
    r = Fraction(5, 3)
    want = brute_weighted_partition_sum(4, s, r)
    assert not hasattr(sixvertex, "enumerate_asms")
    monkeypatch.setattr(asm, "enumerate_asms", boom)
    for name in ("asm_to_six_vertex", "Asm", "VertexGrid"):
        monkeypatch.setattr(sixvertex, name, boom)
    assert weighted_partition_sum(4, s, r) == want
    assert zn_normalized(4, [v * v for v in s], r) == normalize_Z(want, 4, s, r)
    assert refined_from_Z(4, 1, 1) == 42


def test_block_symmetry_generic_q():
    rng = Random(10)
    n = 3
    s = [rat(rng, True) for _ in range(2 * n)]
    r = rat(rng, True)
    base = weighted_partition_sum(n, s, r)
    for _ in range(6):
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        s2 = [s[i] for i in rows] + [s[n + j] for j in cols]
        assert weighted_partition_sum(n, s2, r) == base


def test_full_symmetry_at_cubic_root():
    rng = Random(11)
    for n in (2, 3):
        s = [rat(rng, True) for _ in range(2 * n)]
        base = zn_normalized(n, [v * v for v in s], ZETA)
        for _ in range(20):
            perm = list(range(2 * n))
            rng.shuffle(perm)
            assert zn_normalized(n, [s[p] * s[p] for p in perm], ZETA) == base


def test_korepin_recursion_generic_q():
    rng = Random(12)
    for n in (2, 3):
        for _ in range(5):
            s = [rat(rng, True) for _ in range(2 * n)]
            r = rat(rng, True)
            if abs(r) == 1:
                r *= 2  # q = 1 zeroes the normalization
            q = r * r
            s[n] = s[0] / r  # column-1 parameter pinned to z_1 / q
            z = [v * v for v in s]
            lhs = normalize_Z(weighted_partition_sum(n, s, r), n, s, r)
            ssub = s[1:n] + s[n + 1:]
            pref = Fraction(1) / q ** (n - 1)
            for j in range(1, n):
                pref *= z[0] - q * q * z[j]
            for j in range(n + 1, 2 * n):
                pref *= z[0] - z[j] / q
            rhs = pref * normalize_Z(
                weighted_partition_sum(n - 1, ssub, r), n - 1, ssub, r)
            assert lhs == rhs


def test_matches_schur_at_cubic_root():
    rng = Random(13)
    for n in (1, 2, 3):
        for _ in range(3):
            s = [rat(rng, True) for _ in range(2 * n)]
            z = [v * v for v in s]
            assert zn_normalized(n, z, ZETA) == schur_staircase(n, z)


def test_refined_from_Z_examples():
    assert refined_from_Z(1, Fraction(3, 7), Fraction(-2, 5)) == 1
    assert refined_from_Z(3, 1, 1, "tilde") == 7
    assert refined_from_Z(3, 1, 1, "reversed") == 7


def test_refined_from_Z_matches_brute_force():
    rng = Random(14)
    for n in range(1, 8):
        tilde = genfun_doubly_refined(n, "tilde")
        rev = genfun_doubly_refined(n, "reversed")
        for _ in range(4):
            t, u = rat(rng), rat(rng)
            assert refined_from_Z(n, t, u, "tilde") == tilde.evaluate(t, u)
            assert refined_from_Z(n, t, u, "reversed") == rev.evaluate(t, u)
