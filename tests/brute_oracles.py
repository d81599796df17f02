"""Brute-force oracles for the ASM enumeration order, the doubly refined
polynomials, the six-vertex partition sum, the TSSCPP height array and the
lattice-path integral, the antisymmetrized qKZ kernel, and an arrow-level
check of the six-vertex map.

Each is a sum over listed objects: every ASM from `enumerate_asms`, every
bundle from `enumerate_nilps`.  The library computes the same polynomials
with transfer-matrix DPs (`asm.genfun_doubly_refined`, `nilp.genfun_U`);
these sums are what those DPs are checked against wherever listing is
affordable (n <= 6).  Each size is listed once per test session: the
statistics of every object are tallied and cached, and each polynomial is
read off the tally.  The six-vertex sum applies the vertex weights at the
square roots s of the spectral parameters; the library's row-state
transfer (`sixvertex.zn_normalized`) works at z = s**2 instead.  The height array
is counted cell by cell from the membership rule, which
`tsscpp.from_triangle` works out block by block, and validated cell by cell
(with the triple loop for the axis-permutation symmetry), where
`Tsscpp.validate` checks whole rows, each distinct one once.  The
lattice-path integral is evaluated by iterated residues of its integrand,
where `contour.integral_U` sums determinants instead.
The antisymmetrized kernel is summed over all n! permutations of the
w-variables (`bn_permutation_sum`), where `antisym.bn_brute` runs a DP over
subsets of placed values; it and the closed forms `bn_closed_fractions`,
`fbar_det_fractions` and `fbar_cauchy_fractions` evaluate the h-factors
(`h1`, `hq`, `kernel_f`) in `Fraction` arithmetic, where `antisym` scales
every point to one common denominator and works on ints.
`ice_rule_breach` reads a grid of vertex types as arrows, independently of
the partial-sum typing `sixvertex.asm_to_six_vertex` uses.
`vertex_types_by_cells` is that typing cell by cell, where
`asm_to_six_vertex` looks up one cached transition per row, and
`crossing_tsscpp` builds a bundle's height array through its crossings and
triangle, where `tsscpp.nilp_to_tsscpp` sums packed per-path shares.
`genpoly_value`, `final_x` and `vandermonde_antisym_identity` are
test-only helpers: a `GenPoly` at a point, a path's endpoint after its
extra step, and the antisymmetrized Vandermonde identity with tau symbolic.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

from asmpp import contour
from asmpp.algebra.matrix import determinant, perm_sign
from asmpp.algebra.poly import MultiPoly
from asmpp.antisym import SingularSampleError
from asmpp.asm import _extensions, enumerate_asms, refined_stat
from asmpp.genpoly import GenPoly
from asmpp.nilp import DIAG, VERT, enumerate_nilps, u_statistic
from asmpp.sixvertex import _TYPE_FROM_STATE, asm_to_six_vertex
from asmpp.tsscpp import TsscppError, _above, from_triangle


def chain_asms(n):
    """Every size-n ASM as a tuple of row tuples, by the chain recursion
    `enumerate_asms` replaces with per-call tables: each chain of row states
    is extended by recomputing `_extensions` of its last state, and its rows
    are the differences of successive 0/1 column indicators.  This is the
    order oracle of `enumerate_asms`."""
    if n == 0:
        return [()]
    out = []

    def rec(chain):
        if len(chain) == n:
            out.append(_chain_to_asm(chain, n))
            return
        for nxt in _extensions(chain[-1], n):
            rec(chain + [nxt])

    for first in range(n):
        rec([(first,)])
    return out


def _chain_to_asm(chain, n):
    rows = []
    prev = [0] * n
    for state in chain:
        cur = [0] * n
        for c in state:
            cur[c] = 1
        rows.append(tuple(cur[c] - prev[c] for c in range(n)))
        prev = cur
    return tuple(rows)


@lru_cache(maxsize=None)
def brute_refined_counts(n):
    """How many size-n ASMs have their first-row 1 in column i and their
    last-row 1 in column j, by (i, j), 1-based."""
    return Counter((st.i, st.j) for st in map(refined_stat, enumerate_asms(n)))


def brute_doubly_refined(n, convention="tilde"):
    """Sum over size-n ASMs of x**(i-1) * y**(j-1), j counted from the
    right for "reversed"."""
    poly = GenPoly()
    for (i, j), count in brute_refined_counts(n).items():
        poly.add_term(i - 1, (j if convention == "tilde" else n - j + 1) - 1, count)
    return poly


@lru_cache(maxsize=None)
def brute_u_counts(n):
    """How many size-n bundles have each statistic vector (u^0, ..., u^n)."""
    return Counter(tuple(u_statistic(p, k) for k in range(n + 1))
                   for p in enumerate_nilps(n))


def brute_genfun_U(n, i, j):
    """Sum over size-n bundles of x**u^i * y**u^j."""
    poly = GenPoly()
    for stats, count in brute_u_counts(n).items():
        poly.add_term(stats[i], stats[j], count)
    return poly


def _inv(x):
    return Fraction(1) / x


def brute_weighted_partition_sum(n: int, s, r):
    """Brute-force weighted DWBC partition sum.

    s: the 2n square roots of the spectral parameters (rows then columns),
    r: square root of the global parameter q.  All exact ring elements.
    """
    if len(s) != 2 * n:
        raise ValueError("need 2n square-root spectral values")
    rinv = _inv(r)
    q = r * r
    qinv = rinv * rinv
    cfac = qinv - q
    z = [si * si for si in s]  # rows: z[0..n-1]; columns: z[n..2n-1]
    total = None
    for a in enumerate_asms(n):
        weight = 1
        for i, row in enumerate(asm_to_six_vertex(a).types):
            for j, t in enumerate(row):
                zr, wc = z[i], z[n + j]
                if t[0] == "a":
                    weight = weight * (rinv * zr - r * wc)
                elif t[0] == "b":
                    weight = weight * (rinv * wc - r * zr)
                else:
                    weight = weight * (cfac * s[i] * s[n + j])
        total = weight if total is None else total + weight
    return total


def vertex_types_by_cells(a):
    """The vertex types of an ASM's grid, typed cell by cell from the
    partial row and column sums before each cell."""
    n = a.n
    grid = []
    col = [0] * n
    for i in range(n):
        rowsum = 0
        row_types = []
        for j in range(n):
            v = a.entries[i][j]
            if v == 1:
                row_types.append("c1")
            elif v == -1:
                row_types.append("c2")
            else:
                row_types.append(_TYPE_FROM_STATE[(rowsum, col[j])])
            rowsum += v
            col[j] += v
        grid.append(tuple(row_types))
    return tuple(grid)


# The arrows of each vertex type in the order (left, right, top, bottom):
# E or W on the horizontal edges, U or D on the vertical ones.
ARROWS = {"a1": "EEUU", "a2": "WWDD", "b1": "EEDD", "b2": "WWUU",
          "c1": "EWUD", "c2": "WEDU"}


def ice_rule_breach(types):
    """The first breach, as a message, of the ice rule with domain wall
    boundary conditions in a square grid of vertex types, or None: every
    vertex has two arrows in and two out, neighbours agree on their shared
    edge, and the boundary arrows point in on the sides (E on the left, W on
    the right) and out on the top (U) and the bottom (D)."""
    n = len(types)
    arrows = [[ARROWS[t] for t in row] for row in types]
    for i, row in enumerate(arrows):
        for j, (left, right, top, bottom) in enumerate(row):
            ins = (left == "E") + (right == "W") + (top == "D") + (bottom == "U")
            if ins != 2:
                return f"vertex ({i},{j}) has {ins} arrows in"
            if left != (row[j - 1][1] if j else "E"):
                return f"left edge of ({i},{j})"
            if top != (arrows[i - 1][j][3] if i else "U"):
                return f"top edge of ({i},{j})"
            if j == n - 1 and right != "W":
                return f"right boundary at row {i}"
            if i == n - 1 and bottom != "D":
                return f"bottom boundary at column {j}"
    return None


def membership_heights(n, tri):
    """The 2n x 2n height array of the TSSCPP with bottom-right triangle
    `tri`, counting for each column (i, j) the cells (i, j, k) of the solid:
    a cell whose two largest coordinates lie in the upper half reads
    membership off the triangle, any other cell is in the solid exactly when
    its complement is not."""
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

    return [
        [sum(1 for k in range(1, m + 1) if member(i, j, k)) for j in range(1, m + 1)]
        for i in range(1, m + 1)
    ]


def crossing_tsscpp(p):
    """The TSSCPP of a bundle through the crossing table: path t (level
    c = n-t) crosses triangle row s at r[s][c], the triangle is the row
    conjugate of the crossings, and `from_triangle` rebuilds the array."""
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


def validate_by_cells(a):
    """Tsscpp.validate cell by cell: each entry in [0, 2n], rows and columns
    weakly decreasing, then transpose symmetry and self-complementarity, then
    the axis-permutation symmetry (`axis_symmetry_brute`); the first
    violation is raised as a TsscppError naming it.  This is the oracle of
    the whole-row checks `Tsscpp.validate` rules arrays in with."""
    m = len(a)
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
    axis_symmetry_brute(a)


def axis_symmetry_brute(a):
    """Tsscpp.validate's axis-permutation check cell by cell: (a[i][j] >= k)
    must equal (a[j][k-1] >= i+1) for every (i, j, k), 1 <= k <= 2n."""
    m = len(a)
    for i in range(m):
        for j in range(m):
            for k in range(1, m + 1):
                if (a[i][j] >= k) != (a[j][k - 1] >= i + 1):
                    raise TsscppError(
                        f"axis-permutation symmetry fails at ({i+1},{j+1},{k})"
                    )


def integral_U_residue(n, form="raw"):
    """contour.integral_U by iterated residues of its integrand: denominators
    u_i**(2i-1) over u_1..u_n (raw) or u_i**(2i-2) over u_2..u_n
    (after-u1), the Cauchy kernel, and the numerators (1 + x u_i), and for
    i >= 2 (1 + y u_i)(1 + u_i)**(i-2).  The kernel goes in before the
    numerators: about 40% fewer term products at n = 6 than numerators
    first."""
    first = 1 if form == "raw" else 2
    u = [f"u{i}" for i in range(first, n + 1)]
    spec = contour.IntegrandSpec(tuple(u), {ui: 2 * i - first for i, ui in enumerate(u, first)})
    contour._add_cauchy(spec, u)
    for i, ui in enumerate(u, first):
        spec.add_poly(contour._one_plus({ui: 1, "x": 1}))
        if i >= 2:
            spec.add_poly(contour._one_plus({ui: 1, "y": 1}))
            spec.add_poly(contour._one_plus({ui: 1}) ** (i - 2))
    return GenPoly.from_poly(contour.iterated_residue(spec))


def h1(x, y):
    return (x - y) * (x * y - 1)


def hq(x, y, q):
    return (q * x - y / q) * (q * x * y - 1 / q)


def kernel_f(w, z, q):
    d1 = h1(w, z)
    dq = hq(w, z, q)
    if not d1 or not dq:
        raise SingularSampleError(f"h factors vanish at w={w}, z={z}")
    return 1 / (d1 * dq)


def bn_closed_fractions(n: int, w, z, r):
    """`antisym.bn_closed` with every factor a `Fraction`."""
    q = r * r
    mat = [[kernel_f(w[i], z[j], q) for j in range(n)] for i in range(n)]
    det = determinant(mat)
    den = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            den *= h1(z[i], z[j]) * (1 - q * q * w[i] * w[j])
    if not den:
        raise SingularSampleError("denominator vanished in closed form")
    return q ** (n * (n - 1) // 2) * det / den


def fbar_det_fractions(n: int, w, z):
    """det[1/h_1(w_i, z_j)] over a matrix of `Fraction` entries."""
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            d = h1(w[i], z[j])
            if not d:
                raise SingularSampleError("h_1 vanishes at a sample point")
            row.append(1 / d)
        mat.append(row)
    return determinant(mat)


def fbar_cauchy_fractions(n: int, w, z):
    """`antisym.fbar_cauchy` with every factor a `Fraction`."""
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= h1(w[i], w[j]) * h1(z[j], z[i])
    den = Fraction(1)
    for i in range(n):
        for j in range(n):
            den *= h1(w[i], z[j])
    if not den:
        raise SingularSampleError("h_1 vanishes at a sample point")
    return num / den


def bn_permutation_sum(n: int, w, z, r):
    """The antisymmetrized sum, all n! terms, exactly."""
    q = r * r
    total = Fraction(0)
    for perm in permutations(range(n)):
        ws = [w[p] for p in perm]
        num = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                num *= q * ws[i] - ws[j] / q
        den = Fraction(1)
        for i in range(n):
            for j in range(n):
                if i <= j:
                    den *= h1(ws[j], z[i])
                if i >= j:
                    den *= hq(ws[j], z[i], q)
        if not den:
            raise SingularSampleError("denominator vanished in antisymmetrized sum")
        total += perm_sign(perm) * num / den
    return total


def genpoly_value(p, x, y):
    """The `GenPoly` p at (x, y), summed term by term."""
    result = 0
    for (i, j), c in p.coeffs.items():
        term = c
        for _ in range(i):
            term = term * x
        for _ in range(j):
            term = term * y
        result = result + term
    return result


def final_x(p, t) -> int:
    """x-coordinate of path t of the bundle p after the extra step."""
    return t + (p.steps[t] + p.extra[t]).count(DIAG)


def vandermonde_antisym_identity(n: int) -> bool:
    """AS{ prod_i (1+tau u_i)^(i-1) u_i^(2n-2i) } equals
    prod_{i<j} (u_i-u_j)(u_i+u_j+tau u_i u_j), with tau symbolic."""
    u = [f"u{i}" for i in range(1, n + 1)]
    variables = tuple(u) + ("tau",)
    lhs = MultiPoly(variables)
    for perm in permutations(range(n)):
        us = [u[p] for p in perm]
        term = contour._poly((perm_sign(perm), {ui: 2 * n - 2 * i for i, ui in enumerate(us, 1)}))
        term = term.align(variables)
        for i, ui in enumerate(us, 1):
            term = term * contour._one_plus({ui: 1, "tau": 1}).align(variables) ** (i - 1)
        lhs = lhs + term
    rhs = prod((f.align(variables) for f in contour._vandermonde_pairs(u, {"tau": 1})),
               start=MultiPoly.constant(variables, 1))
    return lhs == rhs
