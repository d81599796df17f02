"""Totally symmetric self-complementary plane partitions and their
lattice-path images.

A TSSCPP in the 2n-cube is stored as its 2n x 2n height array a.  Its solid
of stacked cubes is invariant under coordinate permutations and
complementation, so one rule decides membership of a cell (i, j, k): if its
two largest coordinates p >= q lie in the upper half n+1..2n, the cell is in
the solid when b[p-n][q-n] is at least the third, where b[s][j] = a[n+s][n+j]
(1 <= j <= s <= n) is the bottom-right triangle; any other cell is in it
when its complement (2n+1-i, 2n+1-j, 2n+1-k) is not.  Counting each
column's cells by this rule gives the array block by block (0-based x, y in
0..n-1):

  low[x][y] = a[n+x][n+y] is the triangle and its mirror image: every cell
    above it with height k <= n has its two largest coordinates in the
    upper half, and none with k > n is in the solid (b[s][j] < n);
  a[x][y] = 2n - low[n-1-x][n-1-y]: all of these cells are complements;
  a[x][n+y] = a[n+y][x] = n + above[y][x] - above[n-1-x][n-1-y], where
    above[y][x] = #{v in low[y] : v > x}: cells with k > n read low[y] at
    k, and n - above[n-1-x][n-1-y] cells with k <= n are complements.

So `from_triangle` builds an array as a constant K (2n top-left, n off the
diagonal, 0 bottom-right) plus `_blocks(low, above)`, linear in both.

The path image: for each level c = n-t (t = 1..n-1), the boundary of the
region of triangle entries >= c is a monotone staircase; reading its
vertical/horizontal steps bottom-to-top gives the t-th path of the bundle,
with horizontal steps becoming diagonal ones.  The crossing table r[s][c]
(where the level-c boundary crosses triangle row s) and the triangle are
row conjugates of each other: b[s][j] = #{c : r[s][c] >= j} and r[s][c] =
#{j : b[s][j] >= c}.  Every such count, here and in the array's own checks,
is one call of `_above` per row.

`nilp_to_tsscpp` sums over the paths instead.  Path t (level c = n-t)
crosses triangle row s at r[s], with r[s] = s at or above the row where it
meets the diagonal; its region R[x][y] = [r[max(x, y) + 1] > min(x, y)] is
where low >= c.  So low is the sum of the regions, above[y][x] the row
count at y of the region of level x + 1, and an array is K plus one share
_blocks(R, R's row counts at x = c-1) per level, packed into one int (cell
(i, j) an 8-bit field at bit (i*2n + j)*8) and cached per (n, t, path)
(`_level`).  A partial sum may hold negative fields, but every field of the
whole sum is a height in [0, 2n], so `_decode` reads the heights off the
bytes of the sum.  The crossings -> triangle -> `from_triangle` route stays
in the tests as the oracle of this sum.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import add

from .nilp import Nilp, VERT, DIAG, enumerate_nilps


class TsscppError(ValueError):
    """A height array violates a monotonicity or symmetry constraint."""


class Tsscpp:
    __slots__ = ("n", "heights")

    def __init__(self, heights):
        heights = tuple(tuple(map(int, row)) for row in heights)
        m = len(heights)
        if m % 2 or any(len(row) != m for row in heights):
            raise TsscppError("heights must form a 2n x 2n array")
        self.n = m // 2
        self.heights = heights
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Whole-tuple checks rule an array in: transpose symmetry, each
        distinct row valid by `_valid_row`, and each row the complement of
        its mirror row read backwards.  Given transpose symmetry, the rows'
        order and bounds give the columns' too, and self-conjugate rows give
        the axis symmetry (see `_check_axis_symmetry`).  Only an array they
        rule out reaches the cell-by-cell loop, which names the first
        violation."""
        a = self.heights
        m = len(a)
        if (tuple(zip(*a)) == a
                and all(row in _VALID_ROWS or _valid_row(row, m) for row in a)
                and tuple(map(_VALID_ROWS.__getitem__, reversed(a))) == a):
            return
        for i in range(m):
            for j in range(m):
                if not 0 <= a[i][j] <= m:
                    raise TsscppError(f"height a[{i+1}][{j+1}] outside [0, 2n]")
                if j + 1 < m and a[i][j] < a[i][j + 1]:
                    raise TsscppError(f"row {i+1} increases at column {j+1}")
                if i + 1 < m and a[i][j] < a[i + 1][j]:
                    raise TsscppError(f"column {j+1} increases at row {i+1}")
        for i in range(m):
            for j in range(m):
                if a[i][j] != a[j][i]:
                    raise TsscppError(f"transpose symmetry fails at ({i+1},{j+1})")
                if a[i][j] + a[m - 1 - i][m - 1 - j] != m:
                    raise TsscppError(f"self-complementarity fails at ({i+1},{j+1})")
        _check_axis_symmetry(a)

    def triangle(self):
        """Bottom-right triangle rows: row s has entries b[s][1..s]."""
        n = self.n
        return [
            [self.heights[n + s - 1][n + j - 1] for j in range(1, s + 1)]
            for s in range(1, n + 1)
        ]

    def __eq__(self, other):
        return isinstance(other, Tsscpp) and self.heights == other.heights

    def __hash__(self):
        return hash(self.heights)

    def __repr__(self):
        return f"Tsscpp({self.heights!r})"

    def to_rows(self):
        return [list(r) for r in self.heights]


def _decode(n, cells):
    """The TSSCPP whose heights are the bytes `cells`, row-major: validated,
    but not coerced row by row as `Tsscpp(heights)` coerces outside input."""
    m = 2 * n
    cells = tuple(cells)
    a = object.__new__(Tsscpp)
    a.n = n
    a.heights = tuple(cells[i:i + m] for i in range(0, m * m, m))
    a.validate()
    return a


def _above(row, size):
    """[#{v in row : v > x} for x in range(size)], for entries in [0, size]:
    a histogram and one suffix sum, so the row may be in any order."""
    hist = [0] * (size + 1)
    for v in row:
        hist[v] += 1
    return list(accumulate(reversed(hist[1:])))[::-1]


# Every row `_valid_row` has accepted, mapped to its complement read
# backwards, kept across calls.  A row is keyed by itself: its length is m.
# A valid row of length m is a self-conjugate partition in an m x m box, so
# there are at most 2**m of them.
_VALID_ROWS = {}


def _valid_row(row, m):
    """Whether a row of length m is weakly decreasing, in [0, m] and its own
    conjugate; a valid row joins `_VALID_ROWS`."""
    valid = (list(row) == sorted(row, reverse=True) and row[-1] >= 0 and row[0] <= m
             and _above(row, m) == list(row))
    if valid:
        _VALID_ROWS[row] = tuple(map(m.__sub__, reversed(row)))
    return valid


def _check_axis_symmetry(a):
    """The full axis symmetry of the cube stack: (a[i][j] >= k) equals
    (a[j][k-1] >= i+1) for every cell (i, j, k).  Rows are weakly decreasing
    and in [0, 2n] (checked before), so both sides hold for k up to a bound:
    the cells of (i, j) agree when a[i][j] = #{k : a[j][k] > i}.  Only the
    first (i, j) that differs is searched for its first k, for the message."""
    m = len(a)
    above = [_above(row, m) for row in a]
    for i in range(m):
        for j in range(m):
            if a[i][j] != above[j][i]:
                k = next(k for k in range(1, m + 1) if (a[i][j] >= k) != (a[j][k - 1] >= i + 1))
                raise TsscppError(f"axis-permutation symmetry fails at ({i+1},{j+1},{k})")


def validate_triangle(n, tri):
    """Entries in [0, n-s], rows and columns weakly decreasing."""
    if len(tri) != n or any(len(tri[s]) != s + 1 for s in range(n)):
        raise TsscppError("triangle must have rows of lengths 1..n")
    for s in range(n):
        for j in range(s + 1):
            v = tri[s][j]
            if not 0 <= v <= n - s - 1:
                raise TsscppError(f"triangle entry b[{s+1}][{j+1}] outside [0, {n-s-1}]")
            if j + 1 <= s and v < tri[s][j + 1]:
                raise TsscppError(f"triangle row {s+1} increases at {j+1}")
            if s + 1 < n and v < tri[s + 1][j]:
                raise TsscppError(f"triangle column {j+1} increases at row {s+1}")


def from_triangle(n, tri) -> Tsscpp:
    """The 2n x 2n array of a triangle, K + _blocks(low, above) (see the
    module docstring) added cell by cell, for the bounds `validate_triangle`
    checks."""
    validate_triangle(n, tri)
    low = [[tri[max(x, y)][min(x, y)] for y in range(n)] for x in range(n)]
    fields = _blocks(low, [_above(row, n) for row in low])
    return _decode(n, bytes(map(add, _base(n).to_bytes(4 * n * n, "little"), fields)))


def _blocks(low, above):
    """The part of an array linear in (low, above), flat and row-major: low
    on the bottom-right block, minus low mirrored through (n-1-x, n-1-y) on
    the top-left one, and above[y][x] - above[n-1-x][n-1-y] at (x, n+y) and
    at its transpose (n+y, x)."""
    n = len(low)
    m = 2 * n
    fields = [0] * (m * m)
    for x in range(n):
        for y in range(n):
            fields[(n + x) * m + n + y] = low[x][y]
            fields[x * m + y] = -low[n - 1 - x][n - 1 - y]
            fields[x * m + n + y] = fields[(n + y) * m + x] = (
                above[y][x] - above[n - 1 - x][n - 1 - y])
    return fields


# ---------------------------------------------------------------------------
# The bijection with path bundles
# ---------------------------------------------------------------------------

def tsscpp_to_nilp(a: Tsscpp) -> Nilp:
    """The level-c path crosses triangle row s at #{j : b[s][j] >= c}.  The
    triangle of a validated array has weakly decreasing rows and columns, so
    the crossings never move left, and a path that never meets the diagonal
    ends at x = 0 in row 1."""
    n = a.n
    r = [_above(row, n) for row in a.triangle()]
    steps = [""]
    for t in range(1, n):
        c = n - t
        seq = []
        x = 0
        for s in range(t, 0, -1):
            target = r[s - 1][c - 1]
            seq.append(DIAG * (target - x))
            x = target
            if x == s:
                break  # path reached the diagonal; all steps spent
            seq.append(VERT)
        steps.append("".join(seq))
    return Nilp(steps)


def nilp_to_tsscpp(p: Nilp) -> Tsscpp:
    """The array of a bundle: K plus each path's packed level share (see the
    module docstring)."""
    n = p.n
    total = _base(n)
    for t in range(1, n):
        total += _level(n, t, p.steps[t])
    return _decode(n, total.to_bytes(4 * n * n, "little"))


def _pack(fields):
    """The cells of a 2n x 2n array, row-major, as one int of 8-bit fields."""
    return sum(v << (8 * k) for k, v in enumerate(fields) if v)


@cache
def _base(n):
    """K packed: 2n on the top-left block, n on both off-diagonal blocks."""
    m = 2 * n
    if m > 255:
        raise ValueError(f"n = {n}: a height 2n must fit in one byte")
    return _pack([m if i < n and j < n else n if (i < n) != (j < n) else 0
                  for i in range(m) for j in range(m)])


@cache
def _level(n, t, path):
    """The packed share of path t (level c = n-t) of a size-n bundle, whose
    regular steps are `path`.  At most 2**t paths per (n, t) are cached."""
    c = n - t
    r = [0] * (n + 1)  # r[s]: where the level-c boundary crosses triangle row s
    x, s = 0, t
    for ch in path:
        if ch == VERT:
            r[s] = x
            s -= 1
        else:
            x += 1
    # stopped on the diagonal at (x, -x): rows at or above are full
    for s in range(1, x + 1):
        r[s] = s
    region = [[int(r[max(x, y) + 1] > min(x, y)) for y in range(n)] for x in range(n)]
    return _pack(_blocks(region, [[0] * (c - 1) + [sum(row)] + [0] * (n - c)
                                  for row in region]))


def enumerate_tsscpps(n: int):
    """TSSCPPs in deterministic order, via the inverse bijection."""
    for p in enumerate_nilps(n):
        yield nilp_to_tsscpp(p)


# ---------------------------------------------------------------------------
# Array statistics (the historical formulation)
# ---------------------------------------------------------------------------

def mrr_u_statistic(a: Tsscpp, k: int) -> int:
    """Array form of the vertical-step statistics, index k in [1, n+1].

    Computed from the lower-right block; `mrr_u_statistic_upper_left` is the
    equivalent upper-left form and the two are asserted equal in the tests.
    For k in [1, n] this equals u_statistic(image bundle, k); the k = n+1
    statistic matches u^0 at the level of count multisets via
    u^0 <-> n - 1 - u^{n+1}.
    """
    n = a.n
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in [1, {n + 1}]")
    m = 2 * n
    h = a.heights

    def val(t, c):
        # column n is read as the boundary value 2n - t
        if c == n:
            return m - t
        return h[t - 1][c - 1]

    total = 0
    for t in range(n + k, m + 1):
        total += val(t, t - k) - val(t, t - k + 1)
    for t in range(n + 1, n + k):
        if h[t - 1][n] < m - t:  # a[t][n+1] < 2n - t
            total += 1
    return total


def mrr_u_statistic_upper_left(a: Tsscpp, k: int) -> int:
    """Upper-left form of the same statistic."""
    n = a.n
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in [1, {n + 1}]")
    m = 2 * n
    h = a.heights

    def val(t, c):
        # column n+1 is read as the boundary value 2n - t + 1
        if c == n + 1:
            return m - t + 1
        return h[t - 1][c - 1]

    total = 0
    for t in range(1, n - k + 2):
        total += val(t, t + k - 1) - val(t, t + k)
    for t in range(max(1, n - k + 2), n + 1):
        if h[t - 1][n - 1] > m - t + 1:  # a[t][n] > 2n - t + 1
            total += 1
    return total
