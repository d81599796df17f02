"""Six-vertex configurations with domain wall boundary conditions and their
weighted partition sums.

The bijection with ASMs goes through partial sums: with arrows fixed by the
boundary (in on the sides, out on top and bottom), the horizontal edge right
of cell (i,j) points east iff the partial row sum through column j is 0, and
the vertical edge below points down iff the partial column sum through row i
is 1.  Ice-rule cells then fall into three classes:

  a-class: partial row sum == partial column sum (types a1/a2),
  b-class: they differ (types b1/b2),
  c-class: the cell itself is +1 (c1) or -1 (c2).

A row's types thus depend only on the row and the partial column sums before
it, so each row of the ASM table (`asm._rows`) is typed once per process
(`_row_types`, (3**n - 1)/2 rows per size n): `asm_to_six_vertex` looks
rows up there, and `zn_normalized` weighs the typed rows.

Weights depend on a row parameter z = s_row**2, a column parameter
w = s_col**2 and r with q = r**2:

  weight(a) = z/r - r*w      weight(b) = w/r - r*z
  weight(c) = (1/q - q) * s_row * s_col

This assignment makes the partition sum obey the corner recursion at
z_{n+1} = z_1/q for generic q (checked in the tests) and reproduces the
Schur specialization values at the cubic root of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add

from .algebra.cyclo import CycloScalar, Q3, ZETA
from .asm import Asm, _rows
from .schur import staircase_sign


class VertexGrid:
    """n x n grid of six-vertex types satisfying the ice rule under DWBC."""

    __slots__ = ("n", "types")

    def __init__(self, types, validate=True):
        types = tuple(tuple(row) for row in types)
        n = len(types)
        if any(len(row) != n for row in types):
            raise ValueError("types must form a square grid")
        self.n = n
        self.types = types
        if validate:
            self.validate()

    def validate(self):
        six_vertex_to_asm(self)  # raises unless self is an ASM's grid

    def __eq__(self, other):
        return isinstance(other, VertexGrid) and self.types == other.types

    def __hash__(self):
        return hash(self.types)

    def __repr__(self):
        return f"VertexGrid({self.types!r})"


_TYPE_FROM_STATE = {
    (0, 0): "a1", (1, 1): "a2",
    (0, 1): "b1", (1, 0): "b2",
}
_ENTRY_FROM_TYPE = {"c1": 1, "c2": -1, "a1": 0, "a2": 0, "b1": 0, "b2": 0}


def asm_to_six_vertex(a: Asm) -> VertexGrid:
    """The unique DWBC arrow configuration of an ASM, one cached row
    transition (`_row_types`) per row."""
    col = (0,) * a.n
    grid = []
    for row in a.entries:
        types, col = _row_types(col, row)
        grid.append(types)
    return VertexGrid(grid, validate=False)


@cache
def _row_types(col, row):
    """The vertex types of an ASM row whose partial column sums before it
    are `col`, and those sums after it."""
    types = []
    rowsum = 0
    for v, c in zip(row, col):
        types.append("c1" if v == 1 else "c2" if v == -1 else _TYPE_FROM_STATE[rowsum, c])
        rowsum += v
    return tuple(types), tuple(map(add, col, row))


def six_vertex_to_asm(g: VertexGrid) -> Asm:
    """Inverse bijection.  It accepts exactly the images of
    `asm_to_six_vertex`: the c types give the entries, the grid must be an
    ASM's, and every a/b type must be the one the forward map assigns."""
    try:
        rows = [[_ENTRY_FROM_TYPE[t] for t in row] for row in g.types]
    except KeyError as exc:
        raise ValueError(f"unknown vertex type {exc.args[0]!r}") from None
    a = Asm(rows)
    if asm_to_six_vertex(a) != g:
        raise ValueError("a/b vertex types break arrow continuity")
    return a


def _inv(x):
    return Fraction(1) / x


def _normalization(n: int, s, r):
    """The factor (1/q - q)**n * prod(s), times the staircase sign, that
    `normalize_Z` divides out of the raw partition sum."""
    rinv = _inv(r)
    factor = (rinv * rinv - r * r) ** n
    for si in s:
        factor = factor * si
    return factor * staircase_sign(n)


def weighted_partition_sum(n: int, s, r):
    """Weighted DWBC partition sum, with the class weights of the module
    docstring.

    s: the 2n square roots of the spectral parameters (rows then columns),
    r: square root of the global parameter q.  All exact ring elements.
    It is `zn_normalized` at z = s**2 times `_normalization`, exactly (see
    `zn_normalized`).
    """
    if len(s) != 2 * n:
        raise ValueError("need 2n square-root spectral values")
    return zn_normalized(n, [si * si for si in s], r) * _normalization(n, s, r)


def normalize_Z(ztilde, n: int, s, r):
    """Divide the raw partition sum by its standard normalization so that
    the result is a polynomial of degree n-1 in each spectral parameter
    (and equals the staircase Schur function at q = zeta**2)."""
    return ztilde * _inv(_normalization(n, s, r))


def _weights(n, z, r):
    """Cell (i, j)'s weight of each vertex type at z_i and w_j = z[n+j],
    with `_normalization` taken out of the module's weights: as every row
    and column holds one more +1 than -1, a c2 weighs (1/q - q)**2 z_i w_j,
    the square of its own weight, and a c1 weighs 1, skipped by the
    transfer, so it has no entry."""
    rinv = _inv(r)
    c = (rinv * rinv - r * r) ** 2
    cells = [[(c * zi * w, zi * rinv - r * w, w * rinv - r * zi) for w in z[n:]] for zi in z[:n]]
    return [[{"c2": c2, "a1": a, "a2": a, "b1": b, "b2": b} for c2, a, b in row] for row in cells]


def zn_normalized(n: int, z, r):
    """Normalized partition sum taken directly at spectral parameters z:
    a transfer over the rows of the ASM table (`asm._rows`), each row typed
    by `_row_types` and each vertex weighed by `_weights`, which is the
    module's weighting divided by `_normalization`, exactly and with no
    square root."""
    if len(z) != 2 * n:
        raise ValueError("need 2n spectral values")
    layer = {(): r * _inv(r)}  # the ring's unit, so that n = 1 keeps the ring
    for cells in _weights(n, z, r):
        nxt = {}
        for prev, weight in layer.items():
            col = tuple(int(j in prev) for j in range(n))
            for state, row in _rows(prev, n):
                x = weight
                for cell, t in zip(cells, _row_types(col, row)[0]):
                    if t != "c1":
                        x = x * cell[t]
                nxt[state] = nxt[state] + x if state in nxt else x
        layer = nxt
    return layer[tuple(range(n))] * staircase_sign(n)


def refined_from_Z(n: int, t, u, convention: str = "reversed"):
    """Doubly refined counting polynomial evaluated at rational (t, u)
    through the six-vertex partition function at q = zeta**2.

    The first row parameter is specialized to (1+q t)/(q+t); the last column
    parameter to (1+q u)/(q+u) ("reversed") or its reciprocal form
    ("tilde"), with the matching prefactor.
    """
    q = Q3
    t = Fraction(t)
    u = Fraction(u)
    qt = q + t
    qu = q + u
    one_qt = 1 + q * t
    one_qu = 1 + q * u
    if not qt or not qu or not one_qu or not one_qt:
        raise ZeroDivisionError("sample point hits a pole of the specialization")
    z = [CycloScalar(1)] * (2 * n)
    z[0] = one_qt / qt
    if convention == "reversed":
        z[2 * n - 1] = one_qu / qu
        pref = (q * q * qt * qu) ** (n - 1)
    elif convention == "tilde":
        z[2 * n - 1] = qu / one_qu
        pref = (q * q * qt * one_qu) ** (n - 1)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    zval = zn_normalized(n, z, ZETA)
    result = pref * zval / Fraction(3) ** (n * (n - 1) // 2)
    return result.to_fraction()
