"""Weighted path counting through the non-intersecting-paths determinant.

A single path from (i, -i) to height y = 1 with endpoint x = r + 1 uses
2i - r vertical and r - i + 1 diagonal steps; with weight t_k per vertical
step in the k-th slab its weighted count is the elementary symmetric
polynomial

    P(i, r) = e_{2i-r}(t_0, ..., t_i) = [u^{2i-r}] prod_k (1 + t_k u).

Summing det[P(i, r_j)] over endpoint sequences 1 = r_1 < ... < r_{n-1} with
odd gaps and r_i <= 2i + 1 counts the whole non-intersecting bundle with a
weight per vertical step (extra steps included; the trivial first path
contributes the empty product).
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
    """Weighted bundle count: sum over endpoint sequences of det[P(i, r_j)].

    `weights` has length n (slab 0 = extra step); entries may be scalars or
    polynomials in a shared ring.
    """
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
