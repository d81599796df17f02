"""Weighted path counting through the non-intersecting-paths determinant.

A single path from (i, -i) to height y = 1 with endpoint x = r + 1 uses
2i - r vertical and r - i + 1 diagonal steps; with weight t_k per vertical
step in the k-th slab its weighted count is the elementary symmetric
polynomial

    P(i, r) = e_{2i-r}(t_0, ..., t_i) = [u^{2i-r}] prod_k (1 + t_k u).

The whole non-intersecting bundle (extra steps included; the trivial first
path contributes the empty product) is counted by the sum of det[P(i, r_j)]
over endpoint sequences 1 = r_1 < ... < r_{n-1} with odd gaps and
r_j <= 2j + 1.  lgv_genfun expands every determinant along its columns and
shares the prefixes (the minor-summation view of Stembridge 1990): a state
is the set of rows used so far and the last endpoint, column j adds an
unused row i and an endpoint r, and the sign is (-1)^(number of used rows
above i).  Only ring products and sums are needed, no division.  The sum of
one Bareiss determinant per endpoint sequence stays as lgv_genfun_det, the
oracle the tests compare the DP with.
"""

from __future__ import annotations

from .algebra.matrix import determinant
from .algebra.poly import MultiPoly
from .genpoly import GenPoly


def elementary_symmetric(values):
    """All e_0..e_len as a list, by expanding prod (1 + v*u)."""
    coeffs = [1]
    for v in values:
        coeffs.append(0 * v)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k] + v * coeffs[k - 1]
    return coeffs


def path_weight(i: int, r: int, weights):
    """P(i, r): weighted single-path count (0 outside the feasible band)."""
    k = 2 * i - r
    if k < 0 or k > i + 1:
        return 0 * weights[0]
    return elementary_symmetric(weights[: i + 1])[k]


def endpoint_sequences(n: int):
    """All admissible (r_1 .. r_{n-1}): r_1 = 1, odd gaps, r_i <= 2i + 1."""
    seqs = [[1]] if n >= 2 else [[]]
    for i in range(2, n):
        nxt = []
        for s in seqs:
            r = s[-1] + 1
            while r <= 2 * i + 1:
                nxt.append(s + [r])
                r += 2
        seqs = nxt
    return seqs


def lgv_genfun(n: int, weights):
    """Weighted bundle count: the sum over endpoint sequences of
    det[P(i, r_j)], by the column-by-column Laplace DP.

    `weights` has length n (slab 0 = extra step); entries may be scalars or
    polynomials in a shared ring.
    """
    if len(weights) != n:
        raise ValueError("need one weight per slab (length n)")
    zero = 0 * weights[0]
    esym = [elementary_symmetric(weights[: i + 1]) for i in range(n)]
    layer = {(0, 0): 1 + zero}  # (bitmask of used rows, last endpoint) -> sum
    for j in range(1, n):
        nxt = {}
        for (used, last), value in layer.items():
            for r in [1] if j == 1 else range(last + 1, 2 * j + 2, 2):
                # P(i, r) needs 0 <= 2i - r <= i + 1
                for i in range(max(1, (r + 1) // 2), min(n, r + 2)):
                    if used >> i & 1:
                        continue
                    term = value * esym[i][2 * i - r]
                    if bin(used >> (i + 1)).count("1") % 2:
                        term = -term
                    key = (used | 1 << i, r)
                    nxt[key] = nxt[key] + term if key in nxt else term
        layer = nxt
    return sum(layer.values(), zero)


def lgv_genfun_det(n: int, weights):
    """The same sum as lgv_genfun, with one Bareiss determinant per endpoint
    sequence; kept as the test oracle."""
    if len(weights) != n:
        raise ValueError("need one weight per slab (length n)")
    if n == 1:
        return 1 + 0 * weights[0]
    total = None
    for seq in endpoint_sequences(n):
        mat = [
            [path_weight(i, r, weights) for r in seq]
            for i in range(1, n)
        ]
        term = determinant(mat)
        total = term if total is None else total + term
    return total


def lgv_genfun_xy(n: int) -> GenPoly:
    """The doubly refined polynomial via the determinant route: weights
    (x, y, 1, ..., 1)."""
    xy = ("x", "y")
    x = MultiPoly.variable(xy, "x")
    y = MultiPoly.variable(xy, "y")
    one = MultiPoly.constant(xy, 1)
    weights = [x, y] + [one] * (n - 2) if n >= 2 else [x]
    return GenPoly.from_poly(lgv_genfun(n, weights[:n]))
