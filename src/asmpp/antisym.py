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
in 2^n n steps.  Dropping the h_q part of f leaves a Cauchy determinant
with a fully factored value.  Everything here evaluates these exactly at
rational sample points with generic rational q = r**2.

The kernel is homogeneous, so one scale clears every denominator and all
the arithmetic runs on ints, with one `Fraction` built per result.  Write
w = W/D and z = Z/D with D the lcm of the 2n point denominators, and
q = A/B.  Then

    h_1(w, z)       = H_1 / D^3,           H_1 = (W - Z)(W Z - D^2)
    h_q(w, z)       = H_q / (A^2 B^2 D^3), H_q = (A^2 W - B^2 Z)(A^2 W Z - B^2 D^2)
    q w_a - w_v / q = G / (A B D),         G   = A^2 W_a - B^2 W_v

(`_h` gives H_1 at A = B = 1 and H_q otherwise).  Every term of the sum
has k = n(n+1)/2 factors h_1, k factors h_q and m = n(n-1)/2 factors G, so
it is (A B)^{2k-m} D^{6k-m} times an int ratio.  The DP sums the terms
times P = prod_{v,i} H_1(w_v, z_i) H_q(w_v, z_i): placing v at position j
then multiplies by the int cofactor prod_{i>j} H_1(w_v, z_i)
prod_{i<j} H_q(w_v, z_i), the factors of P that the term lacks.  A sample
is singular exactly when some H_1 or H_q (or, in the closed form, a
denominator factor) is 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .algebra.matrix import determinant
from .schur import random_distinct_rationals


class SingularSampleError(ZeroDivisionError):
    """A sample point makes one of the kernel denominators vanish."""


def _h(x, y, a2, b2, d2):
    """(a2 x - b2 y)(a2 x y - b2 d2): H_1 at a2 = b2 = 1, H_q at a2 = A^2,
    b2 = B^2, for the scaled points x, y and d2 = D^2."""
    return (a2 * x - b2 * y) * (a2 * x * y - b2 * d2)


def _scaled(w, z):
    """(W, Z, D): D is the lcm of the denominators of w and z, and W = D w,
    Z = D z as ints."""
    d = lcm(*(p.denominator for p in (*w, *z)))
    return ([p.numerator * (d // p.denominator) for p in w],
            [p.numerator * (d // p.denominator) for p in z], d)


def _reciprocal_det(rows):
    """(det, scale) with det[1/e] = det / scale, for a matrix of nonzero int
    entries e: row i is scaled by the lcm of its entries."""
    scale = 1
    mat = []
    for row in rows:
        l = lcm(*row)
        mat.append([l // e for e in row])
        scale *= l
    return determinant(mat), scale


def bn_brute(n: int, w, z, r):
    """The antisymmetrized sum, exactly, by a DP over subsets of values.

    A layer maps the bitmask S of the values at positions 0..|S|-1 to the
    signed sum of their partial terms, scaled by P.  Placing v at position
    j = |S| multiplies by the cofactor cof[j][v] and by G(w_a, w_v) for each
    a in S, and flips the sign once per a in S above v.  The products of
    the G over S are kept per S, built when S is first reached."""
    W, Z, D = _scaled(w, z)
    A, B = r.numerator ** 2, r.denominator ** 2
    a2, b2, d2 = A * A, B * B, D * D
    cof = [[0] * n for _ in range(n)]
    big_p = 1
    for v in range(n):
        d1 = [_h(W[v], zi, 1, 1, d2) for zi in Z]
        dq = [_h(W[v], zi, a2, b2, d2) for zi in Z]
        if not all(d1) or not all(dq):
            raise SingularSampleError(f"h factors vanish at w={w[v]}")
        big_p *= prod(d1) * prod(dq)
        suffix = [1] * (n + 1)
        for i in reversed(range(n)):
            suffix[i] = suffix[i + 1] * d1[i]
        prefix = 1
        for j in range(n):
            cof[j][v] = suffix[j + 1] * prefix
            prefix *= dq[j]
    g = [[a2 * wa - b2 * wv for wv in W] for wa in W]
    layer = {0: 1}
    cross = {0: [1] * n}  # cross[S][v] = prod_{a in S} G(w_a, w_v)
    for j in range(n):
        nxt = {}
        for s, val in layer.items():
            for v in range(n):
                if s >> v & 1:
                    continue
                term = val * (cof[j][v] * cross[s][v])
                t = s | 1 << v
                if t not in cross:
                    cross[t] = [c * gv for c, gv in zip(cross[s], g[v])]
                if (s >> v).bit_count() & 1:
                    term = -term
                nxt[t] = nxt.get(t, 0) + term
        layer = nxt
    k, m = n * (n + 1) // 2, n * (n - 1) // 2
    return Fraction(layer[(1 << n) - 1] * (A * B) ** (2 * k - m) * D ** (6 * k - m), big_p)


def bn_closed(n: int, w, z, r):
    """The determinant closed form of the same quantity: f = A^2 B^2 D^6 /
    (H_1 H_q), h_1(z_i, z_j) = H_1(z_i, z_j) / D^3 and
    1 - q^2 w_i w_j = (B^2 D^2 - A^2 W_i W_j) / (B^2 D^2)."""
    W, Z, D = _scaled(w, z)
    A, B = r.numerator ** 2, r.denominator ** 2
    a2, b2, d2 = A * A, B * B, D * D
    rows = [[_h(wi, zj, 1, 1, d2) * _h(wi, zj, a2, b2, d2) for zj in Z] for wi in W]
    if not all(map(all, rows)):
        raise SingularSampleError("h factors vanish at a sample point")
    det, scale = _reciprocal_det(rows)
    for i in range(n):
        for j in range(i + 1, n):
            scale *= _h(Z[i], Z[j], 1, 1, d2) * (b2 * d2 - a2 * W[i] * W[j])
    if not scale:
        raise SingularSampleError("denominator vanished in closed form")
    m = n * (n - 1) // 2
    return Fraction(det * (A * B) ** (m + 2 * n) * D ** (6 * n + 5 * m), scale)


def fbar_det(n: int, w, z):
    """det[1/h_1(w_i, z_j)] = D^{3n} det[1/H_1(w_i, z_j)]: the kernel
    determinant with the q-part dropped."""
    W, Z, D = _scaled(w, z)
    d2 = D * D
    rows = [[_h(wi, zj, 1, 1, d2) for zj in Z] for wi in W]
    if not all(map(all, rows)):
        raise SingularSampleError("h_1 vanishes at a sample point")
    det, scale = _reciprocal_det(rows)
    return Fraction(det * D ** (3 * n), scale)


def fbar_cauchy(n: int, w, z):
    """The same determinant in fully factored (Cauchy) form: the n(n-1) h_1
    factors of the numerator bring D^{6m}, the n^2 of the denominator
    D^{3n^2}, so the int ratio is scaled by D^{3n^2 - 6m} = D^{3n}."""
    W, Z, D = _scaled(w, z)
    d2 = D * D
    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= _h(W[i], W[j], 1, 1, d2) * _h(Z[j], Z[i], 1, 1, d2)
    den = prod(_h(wi, zj, 1, 1, d2) for wi in W for zj in Z)
    if not den:
        raise SingularSampleError("h_1 vanishes at a sample point")
    return Fraction(num * D ** (3 * n), den)


def sample_points(rng, count, forbid=()):
    """Distinct small rationals avoiding 0, +-1 and the `forbid` set (values
    at which the h factors are structurally singular)."""
    return random_distinct_rationals(rng, count, exclude=set(forbid) | {0, 1, -1})
