"""Object-level oracles of the staircase Schur function.

`schur.schur_staircase` runs on Z[zeta] int pairs: it scales the points by
their common denominator and hands a dual Jacobi-Trudi matrix (elementary
symmetric sums over the conjugate shape) of ints or d = 1 cyclotomic
scalars to the pair Bareiss kernel.  The oracles here share none of that:
`schur_staircase_jacobi_trudi` expands the complete homogeneous sums h_k
with `CycloScalar`/`Fraction` arithmetic and takes the Jacobi-Trudi
determinant over the shape itself (`staircase_shape`) by a Bareiss loop
that divides with the field's own `/`, and `schur_staircase_bialternant` is
the ratio of two alternants, valid only at pairwise distinct points.
`catalan` counts the ballot specializations.
"""

import math
from fractions import Fraction

from asmpp.algebra.cyclo import CycloScalar


def staircase_shape(n: int):
    """(n-1, n-1, n-2, n-2, ..., 1, 1) as a tuple (empty for n = 1)."""
    shape = []
    for k in range(n - 1, 0, -1):
        shape += [k, k]
    return tuple(shape)


def catalan(n: int) -> int:
    return math.factorial(2 * n) // math.factorial(n) // math.factorial(n + 1)


def _lift_points(points):
    if any(isinstance(p, CycloScalar) for p in points):
        return [CycloScalar.coerce(p) for p in points], CycloScalar(1)
    return [Fraction(p) for p in points], Fraction(1)


def complete_homogeneous(points, maxdeg: int):
    """h_0 .. h_maxdeg of the given points, by expanding prod 1/(1 - z*w)."""
    points, one = _lift_points(points)
    h = [one] + [one * 0] * maxdeg
    for z in points:
        for k in range(1, maxdeg + 1):
            h[k] = h[k] + z * h[k - 1]
    return h


def field_determinant(m):
    """Bareiss elimination on `Fraction`/`CycloScalar` objects, each step
    divided by the previous pivot with the field's `/`."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = None
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
                a[i][j] = num if prev is None else num / prev
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def schur_staircase_jacobi_trudi(n: int, points):
    """det[h_{lambda_i - i + j}] over the points' own field."""
    if len(points) != 2 * n:
        raise ValueError("need 2n evaluation points")
    shape = staircase_shape(n)
    ell = len(shape)
    if ell == 0:
        _, one = _lift_points(points)
        return one
    h = complete_homogeneous(points, shape[0] + ell - 1)
    zero = h[0] * 0
    mat = [
        [h[shape[i] - i + j] if 0 <= shape[i] - i + j < len(h) else zero
         for j in range(ell)]
        for i in range(ell)
    ]
    return field_determinant(mat)


def schur_staircase_bialternant(n: int, points):
    """Bialternant form det[z_i^(lambda_j + 2n - j)] / det[z_i^(2n - j)].

    Only valid at pairwise distinct points.
    """
    points, one = _lift_points(points)
    if len(set(points)) != len(points):
        raise ValueError("bialternant form needs pairwise distinct points")
    m = 2 * n
    shape = list(staircase_shape(n)) + [0, 0]
    num = [[points[i] ** (shape[j] + m - 1 - j) for j in range(m)] for i in range(m)]
    den = [[points[i] ** (m - 1 - j) for j in range(m)] for i in range(m)]
    # `one` keeps n = 0 exact: an empty determinant is the int 1
    return one * field_determinant(num) / field_determinant(den)
