"""Exact determinants over scalars, by fraction-free (Bareiss) elimination,
and over polynomials.

A scalar matrix (int, `Fraction` or `CycloScalar` entries) is eliminated on
ints: each row is scaled by the lcm of its entries' denominators, so that
every entry becomes a Z[zeta] int pair (n0, n1) (n1 = 0 for a rational
entry), and one Bareiss loop runs over the pairs with `cyclo.pair_mul`.  By
the Sylvester identity each step's division by the previous pivot is exact
in Z[zeta]; `cyclo.pair_div` makes it through the pivot's conjugate and
norm, and raises ValueError on a remainder.  The determinant of the scaled
matrix is divided once, at the end, by the product of the row scales, and
returned in the ring of the input: int for an int matrix, `Fraction` for a
rational one, and `CycloScalar` as soon as one entry is a `CycloScalar`.

A matrix with a `MultiPoly` entry is expanded as the signed sum over
permutations of the products of its entries, with no division; only the
tests' LGV oracle (`lgv.lgv_genfun_det`) reaches that case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import prod

from .cyclo import CycloScalar, pair_div, pair_mul, scaled_pairs
from .poly import MultiPoly


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination.  A matrix
    with a `MultiPoly` entry is expanded over permutations without division,
    into a `MultiPoly` even when it is singular."""
    if not m:
        return 1
    types = {type(e) for row in m for e in row}
    if MultiPoly in types:
        total = MultiPoly(next(e.vars for row in m for e in row if isinstance(e, MultiPoly)))
        for p in permutations(range(len(m))):
            entries = [row[j] for row, j in zip(m, p)]
            if all(entries):
                total += perm_sign(p) * prod(entries)
        return total
    scale = 1
    rows = []
    for row in m:
        pairs, d = scaled_pairs(row)
        rows.append(pairs)
        scale *= d
    r0, r1 = _pair_bareiss(rows)
    if CycloScalar in types:
        return CycloScalar.from_ints(r0, r1, scale)
    return Fraction(r0, scale) if Fraction in types else r0


def _pair_bareiss(a):
    """The determinant of a square matrix of Z[zeta] int pairs, as a pair;
    the rows of `a` are overwritten."""
    n = len(a)
    sign = 1
    p0, p1 = 1, 0
    for k in range(n - 1):
        if a[k][k] == (0, 0):
            for i in range(k + 1, n):
                if a[i][k] != (0, 0):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        pivot_row = a[k]
        k0, k1 = pivot_row[k]
        divide = (p0, p1) != (1, 0)
        for row in a[k + 1:]:
            i0, i1 = row[k]
            for j in range(k + 1, n):
                r0, r1 = row[j]
                s0, s1 = pivot_row[j]
                x0, x1 = pair_mul(k0, k1, r0, r1)
                y0, y1 = pair_mul(i0, i1, s0, s1)
                row[j] = (pair_div(x0 - y0, x1 - y1, p0, p1) if divide
                          else (x0 - y0, x1 - y1))
        p0, p1 = k0, k1
    r0, r1 = a[n - 1][n - 1]
    return sign * r0, sign * r1


def perm_sign(perm):
    """The sign of a sequence of distinct values, by counting inversions."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign
