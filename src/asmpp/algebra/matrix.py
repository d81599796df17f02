"""Exact determinants over scalars and polynomials.

Fraction-free Bareiss elimination is used throughout: over a field the
divisions are ordinary, over a polynomial ring they are exact polynomial
divisions (guaranteed exact by the Sylvester identity).  A cofactor
expansion is kept as an independent oracle for tests.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloScalar
from .poly import MultiPoly


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        return a.exact_div(b)
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"inexact integer division {a}/{b} in Bareiss step")
        return q
    if isinstance(a, CycloScalar) or isinstance(b, CycloScalar):
        return CycloScalar.coerce(a) / CycloScalar.coerce(b)
    return Fraction(a) / Fraction(b)


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0 * a[0][0]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = _exact_div(num, prev) if prev != 1 else num
            a[i][k] = 0
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def perm_sign(perm):
    """The sign of a permutation of 0..n-1, by counting inversions."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def determinant_cofactor(m):
    """Cofactor (Laplace) expansion; independent oracle for small matrices."""
    rows = [list(r) for r in m]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * determinant_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return 0 * rows[0][0]
    return total
