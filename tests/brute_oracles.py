"""Brute-force oracles for the ASM enumeration order, the doubly refined
polynomials, the six-vertex partition sum, the TSSCPP height array and the
lattice-path integral, and an arrow-level check of the six-vertex map.

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
`tsscpp.from_triangle` works out block by block, and checked against the
axis-permutation symmetry with the triple loop `Tsscpp.validate` replaces by
row conjugates.  The lattice-path integral is evaluated by iterated residues
of its integrand, where `contour.integral_U` sums determinants instead.
`ice_rule_breach` reads a grid of vertex types as arrows, independently of
the partial-sum typing `sixvertex.asm_to_six_vertex` uses.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from asmpp import contour
from asmpp.asm import _extensions, enumerate_asms, refined_stat
from asmpp.genpoly import GenPoly
from asmpp.nilp import enumerate_nilps, u_statistic
from asmpp.sixvertex import asm_to_six_vertex
from asmpp.tsscpp import TsscppError


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
