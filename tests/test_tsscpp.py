import sys
from collections import Counter
from random import Random

import pytest
from brute_oracles import axis_symmetry_brute, membership_heights

from asmpp import tsscpp
from asmpp.asm import asm_count_formula
from asmpp.nilp import enumerate_nilps, u_statistic
from asmpp.tsscpp import (
    Tsscpp,
    TsscppError,
    enumerate_tsscpps,
    from_triangle,
    mrr_u_statistic,
    mrr_u_statistic_upper_left,
    nilp_to_tsscpp,
    tsscpp_to_nilp,
    validate_triangle,
)

# the complete size-3 list of height arrays
ARRAYS = [
    ["666333", "666333", "666333", "333000", "333000", "333000"],
    ["666433", "666333", "665332", "433100", "333000", "332000"],
    ["666433", "666433", "664322", "443200", "332000", "332000"],
    ["666543", "665332", "655331", "533110", "433100", "321000"],
    ["666543", "665432", "654321", "543210", "432100", "321000"],
    ["666553", "655331", "655331", "533110", "533110", "311000"],
    ["666553", "655431", "654321", "543210", "532110", "311000"],
]
ARRAYS = [[[int(ch) for ch in row] for row in arr] for arr in ARRAYS]

TRIANGLES = [
    [[0], [0, 0], [0, 0, 0]],
    [[1], [0, 0], [0, 0, 0]],
    [[2], [0, 0], [0, 0, 0]],
    [[1], [1, 0], [0, 0, 0]],
    [[2], [1, 0], [0, 0, 0]],
    [[1], [1, 1], [0, 0, 0]],
    [[2], [1, 1], [0, 0, 0]],
]

PATHS = [("", "V", "VV"), ("", "V", "VD"), ("", "D", "VD"), ("", "V", "DV"),
         ("", "D", "DV"), ("", "V", "DD"), ("", "D", "DD")]


def test_listed_arrays_validate_and_match_triangles():
    for arr, tri in zip(ARRAYS, TRIANGLES):
        a = Tsscpp(arr)
        assert a.triangle() == tri
        assert from_triangle(3, tri) == a


def test_bijection_on_size3_list():
    for arr, steps in zip(ARRAYS, PATHS):
        p = tsscpp_to_nilp(Tsscpp(arr))
        assert p.steps == steps
        assert nilp_to_tsscpp(p) == Tsscpp(arr)


def test_flat_array_maps_to_all_vertical_paths():
    a = Tsscpp(ARRAYS[0])  # the all-"666333" array, triangle 0/00/000
    p = tsscpp_to_nilp(a)
    assert all(set(s) <= {"V"} for s in p.steps)
    assert u_statistic(p, 0) == 0  # every extra step diagonal


def test_roundtrip_all_objects():
    for n in range(1, 7):
        seen = set()
        for p in enumerate_nilps(n):
            a = nilp_to_tsscpp(p)
            assert tsscpp_to_nilp(a) == p
            seen.add(a)
        assert len(seen) == asm_count_formula(n)


def _above_by_cells(row, size):
    return [sum(v > x for v in row) for x in range(size)]


def test_above_counts_the_entries_above_each_level():
    rng = Random(5)
    for _ in range(500):
        size = rng.randint(0, 9)
        row = [rng.randint(0, size) for _ in range(rng.randint(0, 12))]
        assert tsscpp._above(row, size) == _above_by_cells(row, size), (row, size)


def test_above_on_every_row_the_bijections_feed_it(monkeypatch):
    # crossing rows (nilp_to_tsscpp), low rows (from_triangle), array rows
    # (_check_axis_symmetry) and triangle rows (tsscpp_to_nilp)
    calls = {}

    def spy(row, size):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "<listcomp>":
            frame = frame.f_back
        calls.setdefault(frame.f_code.co_name, set()).add((tuple(row), size))
        return above(row, size)

    above = tsscpp._above
    monkeypatch.setattr(tsscpp, "_above", spy)
    for n in range(1, 6):
        for p in enumerate_nilps(n):
            tsscpp_to_nilp(nilp_to_tsscpp(p))
    assert set(calls) == {"nilp_to_tsscpp", "from_triangle", "_check_axis_symmetry",
                          "tsscpp_to_nilp"}
    for caller, seen in calls.items():
        for row, size in seen:
            assert above(row, size) == _above_by_cells(row, size), (caller, row, size)


def test_enumerate_tsscpps():
    assert sum(1 for _ in enumerate_tsscpps(3)) == 7
    got = {t.heights for t in enumerate_tsscpps(3)}
    assert got == {Tsscpp(a).heights for a in ARRAYS}


def test_validation_errors_name_the_violation():
    bad = [row[:] for row in ARRAYS[0]]
    bad[0][0] = 5  # breaks row monotonicity/symmetry
    with pytest.raises(TsscppError):
        Tsscpp(bad)
    bad = [row[:] for row in ARRAYS[0]]
    bad[5][5] = 1  # breaks self-complementarity
    with pytest.raises(TsscppError) as err:
        Tsscpp(bad)
    assert "complementarity" in str(err.value) or "increases" in str(err.value)
    with pytest.raises(TsscppError):
        validate_triangle(3, [[3], [0, 0], [0, 0, 0]])  # entry above bound
    with pytest.raises(TsscppError):
        validate_triangle(3, [[0], [1, 1], [0, 0, 0]])  # column increases


def _triangles(n):
    """Every triangle with bounded, doubly monotone entries."""
    rows = [[]]
    for s in range(1, n + 1):
        new = []
        for partial in rows:
            prev = partial[-1] if partial else None

            def fill(row, j):
                if j == s:
                    new.append(partial + [row])
                    return
                hi = n - s
                if j > 0:
                    hi = min(hi, row[j - 1])
                if prev is not None and j < len(prev):
                    hi = min(hi, prev[j])
                for v in range(hi + 1):
                    fill(row + [v], j + 1)

            fill([], 0)
        rows = new
    return rows


def test_triangle_count_matches():
    # triangles with bounded, doubly monotone entries biject with bundles
    assert len(_triangles(3)) == 7
    assert len(_triangles(4)) == 42


def test_block_heights_match_the_membership_rule():
    # from_triangle fills the array block by block; the oracle counts each
    # column's cells one at a time by the membership rule
    cases = [(n, tri) for n in range(1, 6) for tri in _triangles(n)]
    assert len(cases) == 1 + 2 + 7 + 42 + 429
    for n, tri in cases:
        assert [list(r) for r in from_triangle(n, tri).heights] == membership_heights(n, tri)


def test_mrr_statistics():
    for n in range(1, 5):
        for p in enumerate_nilps(n):
            a = nilp_to_tsscpp(p)
            for k in range(1, n + 2):
                assert mrr_u_statistic(a, k) == mrr_u_statistic_upper_left(a, k)
            for k in range(1, n + 1):
                assert mrr_u_statistic(a, k) == u_statistic(p, k)
        with pytest.raises(ValueError):
            mrr_u_statistic(nilp_to_tsscpp(next(enumerate_nilps(n))), 0)


def test_mrr_extra_step_pairing():
    # the extra index n+1 matches u^0 as count multisets via k -> n-1-k,
    # jointly with the last-step statistic
    for n in range(1, 5):
        pairs = [(p, nilp_to_tsscpp(p)) for p in enumerate_nilps(n)]
        flip = Counter(((n - 1) - mrr_u_statistic(a, n + 1), mrr_u_statistic(a, 1))
                       for _, a in pairs)
        direct = Counter((u_statistic(p, 0), u_statistic(p, 1)) for p, _ in pairs)
        assert flip == direct


def test_statistic_multiset_triple():
    # the three historical statistics correspond to u^0, u^1, u^n
    for n in range(2, 5):
        pairs = [(p, nilp_to_tsscpp(p)) for p in enumerate_nilps(n)]
        assert (Counter(mrr_u_statistic(a, 1) for _, a in pairs)
                == Counter(u_statistic(p, 1) for p, _ in pairs))
        assert (Counter(mrr_u_statistic(a, n) for _, a in pairs)
                == Counter(u_statistic(p, n) for p, _ in pairs))
        assert (Counter((n - 1) - mrr_u_statistic(a, n + 1) for _, a in pairs)
                == Counter(u_statistic(p, 0) for p, _ in pairs))


def _pair_perturbations(a):
    """a with a[i][j] and a[j][i] both moved by +-1, for every i <= j."""
    m = len(a)
    for i in range(m):
        for j in range(i, m):
            for d in (1, -1):
                b = [list(row) for row in a]
                b[i][j] += d
                if i != j:
                    b[j][i] += d
                yield b


def _failure(check, a):
    try:
        check(a)
    except TsscppError as exc:
        return str(exc)
    return None


def test_axis_symmetry_matches_the_cell_by_cell_loop(monkeypatch):
    def by_cells(a):
        with monkeypatch.context() as patch:
            patch.setattr(tsscpp, "_check_axis_symmetry", axis_symmetry_brute)
            return _failure(Tsscpp, a)

    reached = 0
    for n in range(1, 5):
        for t in enumerate_tsscpps(n):
            for a in [t.heights, *_pair_perturbations(t.heights)]:
                assert _failure(Tsscpp, a) == by_cells(a)
                m = len(a)
                # the arrays the check itself sees: rows weakly decreasing in [0, 2n]
                if all(0 <= v <= m for row in a for v in row) and all(
                        row[k] >= row[k + 1] for row in a for k in range(m - 1)):
                    reached += 1
                    assert (_failure(tsscpp._check_axis_symmetry, a)
                            == _failure(axis_symmetry_brute, a))
    assert reached > 1000
