"""Totally symmetric self-complementary plane partitions and their
lattice-path images.

A TSSCPP in the 2n-cube is stored as its 2n x 2n height array.  The whole
array is reconstructible from the bottom-right triangle

    b[s][j] = a[n+s][n+j],   1 <= j <= s <= n,

because the solid of stacked cubes is invariant under coordinate
permutations and complementation: a cell (i, j, k), sorted decreasingly to
(p, q, r), either has its two largest coordinates in the upper half (then
membership reads off the triangle) or its complement does.

The path image: for each level c = n-t (t = 1..n-1), the boundary of the
region of triangle entries >= c is a monotone staircase; reading its
vertical/horizontal steps bottom-to-top gives the t-th path of the bundle,
with horizontal steps becoming diagonal ones.
"""

from __future__ import annotations

from .nilp import Nilp, VERT, DIAG


class TsscppError(ValueError):
    """A height array violates a monotonicity or symmetry constraint."""


class Tsscpp:
    __slots__ = ("n", "heights")

    def __init__(self, heights, validate=True):
        heights = tuple(tuple(int(v) for v in row) for row in heights)
        m = len(heights)
        if m % 2 or any(len(row) != m for row in heights):
            raise TsscppError("heights must form a 2n x 2n array")
        self.n = m // 2
        self.heights = heights
        if validate:
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
        # full axis symmetry of the cube stack
        for i in range(m):
            for j in range(m):
                for k in range(1, m + 1):
                    if (a[i][j] >= k) != (a[j][k - 1] >= i + 1):
                        raise TsscppError(
                            f"axis-permutation symmetry fails at ({i+1},{j+1},{k})"
                        )

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
    """Rebuild the full 2n x 2n array from the bottom-right triangle."""
    validate_triangle(n, tri)
    m = 2 * n

    def b_ge(p, q, r):
        # membership for p >= q >= n+1 (1-based), any r
        return tri[p - n - 1][q - n - 1] >= r

    def member(i, j, k):
        p, q, r = sorted((i, j, k), reverse=True)
        if q >= n + 1:
            if p <= n:  # impossible since p >= q
                raise AssertionError
            return b_ge(p, q, r)
        # at most one coordinate in the upper half: complement instead
        fp, fq, fr = m + 1 - r, m + 1 - q, m + 1 - p
        return not b_ge(fp, fq, fr)

    heights = [
        [sum(1 for k in range(1, m + 1) if member(i, j, k)) for j in range(1, m + 1)]
        for i in range(1, m + 1)
    ]
    return Tsscpp(heights)


# ---------------------------------------------------------------------------
# The bijection with path bundles
# ---------------------------------------------------------------------------

def tsscpp_to_nilp(a: Tsscpp) -> Nilp:
    n = a.n
    tri = a.triangle()
    steps = [""]
    for t in range(1, n):
        c = n - t
        seq = []
        x = 0
        for s in range(t, 0, -1):
            target = sum(1 for j in range(s) if tri[s - 1][j] >= c)
            if target < x:
                raise TsscppError(f"level-{c} region is not a staircase")
            seq.append(DIAG * (target - x))
            x = target
            if x == s:
                break  # path reached the diagonal; all steps spent
            seq.append(VERT)
        else:
            if x != 0:
                raise TsscppError(f"level-{c} path does not close at the origin")
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
    tri = [
        [sum(1 for c in range(1, n) if r[s][c] >= j) for j in range(1, s + 1)]
        for s in range(1, n + 1)
    ]
    return from_triangle(n, tri)


def enumerate_tsscpps(n: int):
    """TSSCPPs in deterministic order, via the inverse bijection."""
    from .nilp import enumerate_nilps
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
