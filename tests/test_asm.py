import itertools

import pytest
from brute_oracles import brute_doubly_refined

from asmpp.asm import (
    Asm,
    RefinedStat,
    _extensions,
    asm_count_formula,
    enumerate_asms,
    genfun_doubly_refined,
    refined_stat,
)

# the complete size-3 list
SIZE3 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0], [1, -1, 1], [0, 1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
]


def test_counts_match_product_formula():
    assert [asm_count_formula(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_asms(n)) == asm_count_formula(n)


def test_extensions_are_the_interlacing_tuples():
    """Every reachable row state, () included: the extensions are the
    (k+1)-subsets of range(n) interlacing the state, in lexicographic order."""
    for n in range(1, 7):
        layer = {()}
        for k in range(n):
            nxt = set()
            for state in sorted(layer):
                brute = [t for t in itertools.combinations(range(n), k + 1)
                         if all(t[i] <= state[i] <= t[i + 1] for i in range(k))]
                assert _extensions(state, n) == brute, (n, state)
                nxt.update(brute)
            layer = nxt
        assert layer == {tuple(range(n))}


def test_size3_set():
    got = {a.entries for a in enumerate_asms(3)}
    want = {Asm(m).entries for m in SIZE3}
    assert got == want


def test_size1():
    objs = list(enumerate_asms(1))
    assert len(objs) == 1 and objs[0].entries == ((1,),)


def test_deterministic_order():
    first = [a.entries for a in enumerate_asms(4)]
    second = [a.entries for a in enumerate_asms(4)]
    assert first == second


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Asm([[1, 0], [1, 0]])  # column sums wrong
    with pytest.raises(ValueError):
        Asm([[1, -1], [0, 1]])  # row ends with -1 / sums wrong
    with pytest.raises(ValueError):
        Asm([[2, -1], [-1, 2]])


def test_refined_stat_examples():
    assert refined_stat(Asm(SIZE3[0])) == RefinedStat(1, 3)
    assert refined_stat(Asm(SIZE3[4])) == RefinedStat(2, 2)
    assert refined_stat(Asm([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == RefinedStat(3, 1)


def test_genfun_examples():
    g3 = genfun_doubly_refined(3, "tilde")
    assert g3.coeffs == {(0, 2): 1, (0, 1): 1, (1, 2): 1, (1, 0): 1,
                         (1, 1): 1, (2, 1): 1, (2, 0): 1}
    assert genfun_doubly_refined(1).coeffs == {(0, 0): 1}
    assert genfun_doubly_refined(2, "tilde").coeffs == {(1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_dp_matches_the_brute_sum(n):
    for convention in ("tilde", "reversed"):
        assert genfun_doubly_refined(n, convention) == brute_doubly_refined(n, convention)


def test_genfun_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown convention"):
        genfun_doubly_refined(3, "mirrored")
    with pytest.raises(ValueError, match="n must be >= 1"):
        genfun_doubly_refined(0)


def test_reflection_symmetries():
    for n in range(1, 7):
        m = genfun_doubly_refined(n, "reversed").coefficient_matrix()
        for i in range(n):
            for j in range(n):
                assert m[i][j] == m[j][i]
                assert m[i][j] == m[n - 1 - i][n - 1 - j]


def test_single_refinement_agrees_between_conventions():
    for n in range(1, 7):
        tilde = genfun_doubly_refined(n, "tilde")
        rev = genfun_doubly_refined(n, "reversed")
        tx, rx = {}, {}
        for (i, _j), c in tilde.coeffs.items():
            tx[i] = tx.get(i, 0) + c
        for (i, _j), c in rev.coeffs.items():
            rx[i] = rx.get(i, 0) + c
        assert tx == rx
