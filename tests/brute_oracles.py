"""Brute-force oracles for the doubly refined polynomials.

Both are sums over listed objects: every ASM from `enumerate_asms`, every
bundle from `enumerate_nilps`.  The library computes the same polynomials
with transfer-matrix DPs (`asm.genfun_doubly_refined`, `nilp.genfun_U`);
these sums are what those DPs are checked against wherever listing is
affordable (n <= 6).  Each size is listed once per test session: the
statistics of every object are tallied and cached, and each polynomial is
read off the tally.
"""

from collections import Counter
from functools import lru_cache

from asmpp.asm import enumerate_asms, refined_stat
from asmpp.genpoly import GenPoly
from asmpp.nilp import enumerate_nilps, u_statistic


@lru_cache(maxsize=None)
def brute_refined_counts(n):
    """How many size-n ASMs have their first-row 1 in column i and their
    last-row 1 in column j, by (i, j), 1-based."""
    return Counter((st.i, st.j) for st in map(refined_stat, enumerate_asms(n)))


def brute_doubly_refined(n, convention="tilde"):
    """Sum over size-n ASMs of x**(i-1) * y**(j-1), j counted from the
    right for "reversed"."""
    poly = GenPoly()
    for (i, j), count in brute_refined_counts(n).items():
        poly.add_term(i - 1, (j if convention == "tilde" else n - j + 1) - 1, count)
    return poly


@lru_cache(maxsize=None)
def brute_u_counts(n):
    """How many size-n bundles have each statistic vector (u^0, ..., u^n)."""
    return Counter(tuple(u_statistic(p, k) for k in range(n + 1))
                   for p in enumerate_nilps(n))


def brute_genfun_U(n, i, j):
    """Sum over size-n bundles of x**u^i * y**u^j."""
    poly = GenPoly()
    for stats, count in brute_u_counts(n).items():
        poly.add_term(stats[i], stats[j], count)
    return poly
