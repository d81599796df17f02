"""Weighted path counting through the non-intersecting-paths determinant.

A single path from (i, -i) to height y = 1 with endpoint x = r + 1 uses
2i - r vertical and r - i + 1 diagonal steps; with weight t_k per vertical
step in the k-th slab its weighted count is the elementary symmetric
polynomial

    P(i, r) = e_{2i-r}(t_0, ..., t_i) = [u^{2i-r}] prod_k (1 + t_k u).

The whole non-intersecting bundle (extra steps included; the trivial first
path contributes the empty product) is counted by the sum of det[P(i, r_j)]
over endpoint sequences 1 = r_1 < ... < r_{n-1} with odd gaps and
r_j <= 2j + 1 (past it the last n - j columns have only the n - j - 1 rows
above j).  minor_sum evaluates such sums of minors (Stembridge 1990;
Ishikawa-Wakayama 1995) for any entries c_i(r) and first endpoints, with
odd gaps after them: it expands every determinant along its columns and
shares the prefixes.  A state is the set of rows used so far and the last
endpoint, column j adds an unused row i and an endpoint r, and the sign is
(-1)^(number of used rows with a larger index than i).  A row whose last
entry lies below r must already be used, which prunes every state that
cannot complete.  Only ring products, sums and negation are needed, so the
same DP runs on the weights' ring in lgv_genfun and, by packed_minor_sum, on
Kronecker-packed ints in lgv_genfun_xy, contour.integral_A and integral_U.
The sum of one determinant per endpoint sequence stays as
lgv_genfun_det, the test oracle.
"""

from __future__ import annotations

from math import comb, prod

from .algebra.matrix import determinant
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
        seqs = [s + [r] for s in seqs for r in range(s[-1] + 1, 2 * i + 2, 2)]
    return seqs


def minor_sum(rows: int, columns, firsts, one):
    """The sum of det[c_i(r_j)] (i, j < rows) over the endpoint sequences
    r_0 < ... < r_{rows-1} with r_0 in `firsts` (ascending) and every later
    gap odd, by the column-by-column Laplace DP.

    columns maps each endpoint r to its entries [(i, c_i(r)), ...] (zero
    ones may be left out), and covers the first endpoints; `one` is the
    ring's unit.  A state is (bitmask of used rows, last endpoint).
    """
    top = max(columns, default=-1)
    last_entry = {i: r for r in sorted(columns) for i, _ in columns[r]}
    # must[r]: the rows with no entry at r or later
    must = [sum(1 << i for i in range(rows) if last_entry.get(i, -1) < r)
            for r in range(top + 1)]
    layer = {(0, None): one}
    for _ in range(rows):
        nxt = {}
        for (used, last), value in layer.items():
            for r in firsts if last is None else range(last + 1, top + 1, 2):
                if used & must[r] != must[r]:
                    break
                for i, entry in columns.get(r, ()):
                    if used >> i & 1:
                        continue
                    term = value * entry
                    if (used >> (i + 1)).bit_count() & 1:
                        term = -term
                    key = (used | 1 << i, r)
                    nxt[key] = nxt[key] + term if key in nxt else term
        layer = nxt
    return sum(layer.values(), one - one)


def bilinear_entry(k: int, m: int) -> dict:
    """[u**m] (1+x u)(1+y u)(1+u)**k as {(x exponent, y exponent): c}."""
    return {(a, b): comb(k, m - a - b) for a in (0, 1) for b in (0, 1)
            if 0 <= m - a - b <= k}


def packed_minor_sum(rows, first: int) -> GenPoly:
    """minor_sum for entries c_i(r) = rows[i][r], each {(x exponent, y
    exponent): c}, and first endpoints first, first + 2, ..., on
    Kronecker-packed ints x = 2**W, y = 2**(W*s).  A term takes one entry per
    row, so its x-degree is below s = 1 + the sum of the rows' x-degrees and
    each coefficient is at most prod_i (1 + sum_r l1(c_i(r))); W is that
    bound's bit length plus a sign bit (50 bits for integral_A at n = 9)."""
    stride = 1 + sum(max(a for col in row.values() for a, _ in col) for row in rows)
    bound = prod(1 + sum(abs(c) for col in row.values() for c in col.values())
                 for row in rows)
    width = bound.bit_length() + 1
    columns = {}
    for i, row in enumerate(rows):
        for r, col in row.items():
            packed = sum(c << (a + b * stride) * width for (a, b), c in col.items())
            columns.setdefault(r, []).append((i, packed))
    firsts = range(first, max(columns, default=0) + 1, 2)
    return GenPoly.from_packed(minor_sum(len(rows), columns, firsts, 1), stride, width)


def lgv_genfun(n: int, weights):
    """Weighted bundle count: the sum over endpoint sequences of
    det[P(i, r_j)], by minor_sum with rows i = 1..n-1 and r_1 = 1.

    `weights` has length n (slab 0 = extra step); entries may be scalars or
    polynomials in a shared ring.
    """
    if len(weights) != n:
        raise ValueError("need one weight per slab (length n)")
    columns = {}
    for i in range(1, n):  # P(i, r) needs 0 <= 2i - r <= i + 1
        esym = elementary_symmetric(weights[: i + 1])
        for r in range(i - 1, 2 * i + 1):
            columns.setdefault(r, []).append((i - 1, esym[2 * i - r]))
    return minor_sum(n - 1, columns, [1], 1 + 0 * weights[0])


def lgv_genfun_det(n: int, weights):
    """The same sum as lgv_genfun, with one determinant per endpoint
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
    (x, y, 1, ..., 1), so P(i, r) = [u**(2i-r)] (1+x u)(1+y u)(1+u)**(i-1);
    row i = 1 ends at r = 2, so r_1 = 1 is the only odd first endpoint."""
    return packed_minor_sum([{2 * i - m: bilinear_entry(i - 1, m) for m in range(i + 2)}
                             for i in range(1, n)], 1)
