"""Alternating sign matrices: enumeration, boundary statistics, counting.

Enumeration runs over the column sets of partial row sums (equivalently,
monotone triangles): after the first i rows of an ASM, each column sum is 0
or 1 and exactly i columns carry a 1.  Successive column sets interlace, and
each interlacing chain corresponds to exactly one ASM.  `enumerate_asms`
lists the matrices ordered lexicographically by the chain of row states.

`genfun_doubly_refined` counts the same chains without listing them: a
transfer-matrix DP over the row states, keeping per state the counts by
first-row column, packed into one int (see `GenPoly.from_packed`).  The
state after n-1 rows lacks one column, the column of the last row's 1.  The
sum over `enumerate_asms` it replaces is kept in the tests as its oracle.
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
    T[0] <= state[0] <= T[1] <= ... <= state[k-1] <= T[k], values in [0, n),
    lexicographically.  T[i] runs over [max(state[i-1], T[i-1] + 1), state[i]]
    with state[-1] = 0 and state[k] = n - 1; as T[i-1] <= state[i-1], that
    lower end is state[i-1] + (T[i-1] == state[i-1])."""
    tuples = [()]
    for lo, hi in zip((0,) + state, state + (n - 1,)):
        tuples = [t + (v,) for t in tuples
                  for v in range(lo + (t[-1] == lo) if t else lo, hi + 1)]
    return tuples


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
    if n < 1:
        raise ValueError("n must be >= 1")
    # a count packs into a width-bit field with its top bit clear: the
    # chains of subsets of range(n) number at most 2**(n*n)
    width = n * n + 2
    layer = {(c,): 1 << (c * width) for c in range(n)}  # x**(first column)
    for _ in range(n - 2):
        nxt = {}
        for state, packed in layer.items():
            for ext in _extensions(state, n):
                nxt[ext] = nxt.get(ext, 0) + packed
        layer = nxt
    total = 0
    for state, packed in layer.items():
        last = n * (n - 1) // 2 - sum(state)  # the one column the state lacks
        j = last if convention == "tilde" else n - 1 - last
        total += packed << (j * n * width)
    return GenPoly.from_packed(total, n, width)
