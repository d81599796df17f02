"""Totally symmetric self-complementary plane partitions and their
lattice-path images.

A TSSCPP in the 2n-cube is stored as its 2n x 2n height array a.  Its solid
of stacked cubes is invariant under coordinate permutations and
complementation, so one rule decides membership of a cell (i, j, k): if its
two largest coordinates p >= q lie in the upper half n+1..2n, the cell is in
the solid when b[p-n][q-n] is at least the third, where b[s][j] = a[n+s][n+j]
(1 <= j <= s <= n) is the bottom-right triangle; any other cell is in it
when its complement (2n+1-i, 2n+1-j, 2n+1-k) is not.  `from_triangle` counts
each column's cells by this rule, one block of the array at a time.

The path image: for each level c = n-t (t = 1..n-1), the boundary of the
region of triangle entries >= c is a monotone staircase; reading its
vertical/horizontal steps bottom-to-top gives the t-th path of the bundle,
with horizontal steps becoming diagonal ones.  The crossing table r[s][c]
(where the level-c boundary crosses triangle row s) and the triangle are
row conjugates of each other: b[s][j] = #{c : r[s][c] >= j} and r[s][c] =
#{j : b[s][j] >= c}.  Every such count, here and in the array's own checks,
is one call of `_above` per row.
"""

from __future__ import annotations

from itertools import accumulate

from .nilp import Nilp, VERT, DIAG, enumerate_nilps


class TsscppError(ValueError):
    """A height array violates a monotonicity or symmetry constraint."""


class Tsscpp:
    __slots__ = ("n", "heights")

    def __init__(self, heights):
        heights = tuple(tuple(int(v) for v in row) for row in heights)
        m = len(heights)
        if m % 2 or any(len(row) != m for row in heights):
            raise TsscppError("heights must form a 2n x 2n array")
        self.n = m // 2
        self.heights = heights
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self):
        m = 2 * self.n
        a = self.heights
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


def _above(row, size):
    """[#{v in row : v > x} for x in range(size)], for entries in [0, size]:
    a histogram and one suffix sum, so the row may be in any order."""
    hist = [0] * (size + 1)
    for v in row:
        hist[v] += 1
    return list(accumulate(reversed(hist[1:])))[::-1]


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
    """Rebuild the full 2n x 2n array from the bottom-right triangle, block
    by block (0-based, x and y in 0..n-1, low the bottom-right block):

      low[x][y] = a[n+x][n+y] is the triangle and its mirror image: every
        cell above it with height k <= n has its two largest coordinates in
        the upper half, and none with k > n is in the solid (b[s][j] < n);
      a[x][y] = 2n - low[n-1-x][n-1-y]: all of these cells are complements;
      a[x][n+y] = a[n+y][x] = #{v in low[y] : v > x}
                              + #{v in low[n-1-x] : v < n-y}:
        its cells with k > n read low[y] at k, those with k <= n are
        complements read off low[n-1-x].  The second count is n minus
        #{v in low[n-1-x] : v > n-1-y}, so both read one `_above` per row.

    The off-diagonal count assumes the bounds `validate_triangle` checks."""
    validate_triangle(n, tri)
    m = 2 * n
    low = [[tri[max(x, y)][min(x, y)] for y in range(n)] for x in range(n)]
    above = [_above(row, n) for row in low]
    a = [[0] * m for _ in range(m)]
    for x in range(n):
        for y in range(n):
            a[n + x][n + y] = low[x][y]
            a[x][y] = m - low[n - 1 - x][n - 1 - y]
            a[x][n + y] = a[n + y][x] = above[y][x] + n - above[n - 1 - x][n - 1 - y]
    return Tsscpp(a)


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
    n = p.n
    # crossing positions r[s][c]: x-coordinate at which the level-c boundary
    # crosses triangle row s (counted in region cells)
    r = [[0] * n for _ in range(n + 1)]  # r[s][c] for 1<=s<=n, 1<=c<=n-1
    for t in range(1, n):
        c = n - t
        x = 0
        y = -t
        for ch in p.steps[t]:
            if ch == VERT:
                r[-y][c] = x
                y += 1
            else:
                x += 1
        # stopped on the diagonal at (x, -x): rows at or above are full
        for s in range(1, x + 1):
            r[s][c] = s
    return from_triangle(n, [_above(r[s][1:], s) for s in range(1, n + 1)])


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
