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

from .algebra.cyclo import CycloScalar, Q3, ZETA
from .asm import Asm, _extensions
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
    """The unique DWBC arrow configuration of an ASM."""
    n = a.n
    grid = []
    col = [0] * n
    for i in range(n):
        rowsum = 0
        row_types = []
        for j in range(n):
            v = a.entries[i][j]
            if v == 1:
                row_types.append("c1")
            elif v == -1:
                row_types.append("c2")
            else:
                row_types.append(_TYPE_FROM_STATE[(rowsum, col[j])])
            rowsum += v
            col[j] += v
        grid.append(row_types)
    return VertexGrid(grid, validate=False)


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


def zn_normalized(n: int, z, r):
    """Normalized partition sum taken directly at spectral parameters z.

    A transfer over the row states of `asm._extensions` (after row i, the
    columns with partial column sum 1); cell (i, j) holds [j in state] -
    [j in prev].  With w_j = z[n+j], a +1 weighs 1, a -1 (1/q - q)**2 z_i
    w_j, and a 0 weighs a = z_i/r - r w_j if the row sum before column j
    is [j in prev], else b = w_j/r - r z_i.  This is the module's weighting
    divided by `_normalization`, exactly and with no square root: every row
    and column holds one more +1 than -1.
    """
    if len(z) != 2 * n:
        raise ValueError("need 2n spectral values")
    rinv = _inv(r)
    c2 = (rinv * rinv - r * r) ** 2
    layer = {(): r * rinv}  # the ring's unit, so that n = 1 keeps the ring
    for i in range(n):
        cells = [(c2 * z[i] * w, rinv * z[i] - r * w, rinv * w - r * z[i]) for w in z[n:]]
        nxt = {}
        for prev, weight in layer.items():
            for state in _extensions(prev, n):
                x, rowsum = weight, 0
                for j, (minus, a, b) in enumerate(cells):
                    was = j in prev
                    entry = (j in state) - was
                    if entry <= 0:
                        x = x * (minus if entry else a if rowsum == was else b)
                    rowsum += entry
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
