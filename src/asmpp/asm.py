"""Alternating sign matrices: enumeration, boundary statistics, counting.

Enumeration runs over the column sets of partial row sums (equivalently,
monotone triangles): after the first i rows of an ASM, each column sum is 0
or 1 and exactly i columns carry a 1.  Successive column sets interlace, and
each interlacing chain corresponds to exactly one ASM.  This generates the
7436 matrices of size 6 in well under a second, ordered lexicographically by
the chain of row states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .genpoly import GenPoly


class Asm:
    """Square matrix over {-1, 0, 1} whose nonzero entries alternate in sign
    along every row and column, starting and ending with +1."""

    __slots__ = ("n", "entries")

    def __init__(self, entries, validate=True):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("entries must form a square matrix")
        self.n = n
        self.entries = entries
        if validate:
            self.validate()

    def validate(self):
        for axis, lines in (("row", self.entries), ("column", zip(*self.entries))):
            for idx, line in enumerate(lines):
                signs = [v for v in line if v]
                if any(v not in (-1, 0, 1) for v in line):
                    raise ValueError(f"{axis} {idx}: entry outside {{-1,0,1}}")
                if not signs or signs[0] != 1 or signs[-1] != 1:
                    raise ValueError(f"{axis} {idx}: nonzeros must start and end with 1")
                for a, b in zip(signs, signs[1:]):
                    if a == b:
                        raise ValueError(f"{axis} {idx}: signs do not alternate")

    def __eq__(self, other):
        return isinstance(other, Asm) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Asm({self.entries!r})"

    def to_rows(self):
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class RefinedStat:
    """1-based columns of the unique 1 in the first and last rows."""
    i: int
    j: int


def asm_count_formula(n: int) -> int:
    """Product formula for the number of size-n ASMs."""
    num = den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    q, r = divmod(num, den)
    assert r == 0
    return q


def _extensions(state, n):
    """All strictly increasing (k+1)-tuples T interlacing the k-tuple state:
    T[0] <= state[0] <= T[1] <= ... <= state[k-1] <= T[k], values in [0, n)."""
    k = len(state)
    results = []

    def rec(pos, lo, acc):
        if pos == k:
            for v in range(lo, n):
                results.append(acc + (v,))
            return
        hi = state[pos]
        for v in range(lo, hi + 1):
            rec(pos + 1, max(hi, v + 1), acc + (v,))

    rec(0, 0, ())
    return results


def enumerate_asms(n: int):
    """Yield every size-n ASM exactly once, in a deterministic order.

    n = 0 yields a single empty matrix by convention.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield Asm(())
        return

    def rec(chain):
        if len(chain) == n:
            yield _chain_to_asm(chain, n)
            return
        for nxt in _extensions(chain[-1], n):
            yield from rec(chain + [nxt])

    for first in range(n):
        yield from rec([(first,)])


def _chain_to_asm(chain, n):
    rows = []
    prev = [0] * n
    for state in chain:
        cur = [0] * n
        for c in state:
            cur[c] = 1
        rows.append([cur[c] - prev[c] for c in range(n)])
        prev = cur
    return Asm(rows, validate=False)


def refined_stat(a: Asm) -> RefinedStat:
    """Positions (1-based) of the unique 1 in the first and last rows."""
    i = a.entries[0].index(1) + 1
    j = a.entries[-1].index(1) + 1
    return RefinedStat(i, j)


def genfun_doubly_refined(n: int, convention: str = "tilde") -> GenPoly:
    """Sum over size-n ASMs of x**(i-1) * y**(j-1).

    "tilde": j is the last-row column as read.  "reversed": j is counted
    from the right (the two conventions are mirror images in y).
    """
    if convention not in ("tilde", "reversed"):
        raise ValueError(f"unknown convention {convention!r}")
    poly = GenPoly()
    for a in enumerate_asms(n):
        st = refined_stat(a)
        j = st.j if convention == "tilde" else n - st.j + 1
        poly.add_term(st.i - 1, j - 1)
    return poly
