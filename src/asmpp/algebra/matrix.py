"""Exact determinants over scalars and polynomials.

Fraction-free Bareiss elimination is used throughout: over a field the
divisions are ordinary, over a polynomial ring they are exact polynomial
divisions (guaranteed exact by the Sylvester identity).
"""

from __future__ import annotations

from .poly import MultiPoly


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        return a.exact_div(b)
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"inexact integer division {a}/{b} in Bareiss step")
        return q
    return a / b  # Fraction and CycloScalar promote each other


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
    """The sign of a sequence of distinct values, by counting inversions."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign

