"""The n!-term antisymmetrized kernel and its determinant closed form.

With h_q(x, y) = (q x - y/q)(q x y - 1/q) and h_1 its q = 1 case, the
antisymmetrization over the w-variables of

    prod_{i<j} (q w_i - w_j/q) / [ prod_{i<=j} h_1(w_j, z_i)
                                   prod_{i>=j} h_q(w_j, z_i) ]

collapses to q^{n(n-1)/2} det[f(w_i, z_j)] / prod_{i<j} h_1(z_i,z_j)(1-q^2 w_i w_j)
with f = 1/(h_1 h_q).  Dropping the h_q part of f leaves a Cauchy
determinant with a fully factored value.  Everything here evaluates these
exactly at rational sample points with generic rational q = r**2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .algebra.matrix import determinant, perm_sign
from .schur import random_distinct_rationals


class SingularSampleError(ZeroDivisionError):
    """A sample point makes one of the kernel denominators vanish."""


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


def bn_brute(n: int, w, z, r):
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


def bn_closed(n: int, w, z, r):
    """The determinant closed form of the same quantity."""
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


def fbar_det(n: int, w, z):
    """det[1/h_1(w_i, z_j)]: the kernel determinant with the q-part dropped."""
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


def fbar_cauchy(n: int, w, z):
    """The same determinant in fully factored (Cauchy) form."""
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


def sample_points(rng, count, forbid=()):
    """Distinct small rationals avoiding 0, +-1 and the `forbid` set (values
    at which the h factors are structurally singular)."""
    return random_distinct_rationals(rng, count, exclude=set(forbid) | {0, 1, -1})
