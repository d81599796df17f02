"""The antisymmetrized kernel, summed by a DP over subsets, and its
determinant closed form.

With h_q(x, y) = (q x - y/q)(q x y - 1/q) and h_1 its q = 1 case, the
antisymmetrization over the w-variables of

    prod_{i<j} (q w_i - w_j/q) / [ prod_{i<=j} h_1(w_j, z_i)
                                   prod_{i>=j} h_q(w_j, z_i) ]

collapses to q^{n(n-1)/2} det[f(w_i, z_j)] / prod_{i<j} h_1(z_i,z_j)(1-q^2 w_i w_j)
with f = 1/(h_1 h_q).  Each of the n! terms of the sum factors by
position: the value placed at position j brings its own h-factors, one
cross factor with each value placed before it, and one sign per earlier
value above it.  So the sum is a DP over the set of values placed so far,
in 2^n n^2 steps.  Dropping the h_q part of f leaves a Cauchy determinant
with a fully factored value.  Everything here evaluates these exactly at
rational sample points with generic rational q = r**2.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra.matrix import determinant
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
    """The antisymmetrized sum, exactly, by a DP over subsets of values.

    A layer maps the bitmask S of the values at positions 0..|S|-1 to the
    signed sum of their partial terms.  Placing v at position j = |S|
    multiplies by inv[j][v] = 1/(prod_{i<=j} h_1(w_v, z_i) prod_{i>=j}
    h_q(w_v, z_i)) and by q w_a - w_v/q for each a in S, and flips the sign
    once per a in S above v.  Every h-factor is in the denominator of some
    term, so the sample is singular exactly when one of them vanishes."""
    q = r * r
    inv = [[None] * n for _ in range(n)]
    for v in range(n):
        d1 = [h1(w[v], zi) for zi in z]
        dq = [hq(w[v], zi, q) for zi in z]
        if not all(d1) or not all(dq):
            raise SingularSampleError(f"h factors vanish at w={w[v]}")
        suffix = [Fraction(1)] * (n + 1)
        for i in reversed(range(n)):
            suffix[i] = suffix[i + 1] * dq[i]
        prefix = Fraction(1)
        for j in range(n):
            prefix *= d1[j]
            inv[j][v] = 1 / (prefix * suffix[j])
    g = [[q * wa - wv / q for wv in w] for wa in w]
    layer = {0: Fraction(1)}
    for j in range(n):
        nxt = {}
        for s, val in layer.items():
            placed = [a for a in range(n) if s >> a & 1]
            for v in range(n):
                if s >> v & 1:
                    continue
                factor = inv[j][v]
                for a in placed:
                    factor *= g[a][v]
                term = val * factor
                t = s | 1 << v
                if (s >> v).bit_count() & 1:
                    term = -term
                nxt[t] = nxt.get(t, 0) + term
        layer = nxt
    return layer[(1 << n) - 1]


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
