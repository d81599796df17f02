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

from .algebra.cyclo import CycloScalar
from .asm import Asm, enumerate_asms


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
        # Reconstruct the partial-sum edges; each type pins (T, S, entry).
        to_asm(self)  # raises on inconsistency

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
_STATE_FROM_TYPE = {v: k for k, v in _TYPE_FROM_STATE.items()}


def from_asm(a: Asm) -> VertexGrid:
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


def to_asm(g: VertexGrid) -> Asm:
    """Inverse bijection; validates the ice rule and boundary as it goes."""
    n = g.n
    rows = []
    col = [0] * n
    for i in range(n):
        rowsum = 0
        row = []
        for j in range(n):
            t = g.types[i][j]
            if t == "c1":
                v = 1
            elif t == "c2":
                v = -1
            elif t in _STATE_FROM_TYPE:
                v = 0
                if _STATE_FROM_TYPE[t] != (rowsum, col[j]):
                    raise ValueError(f"vertex ({i},{j}) type {t} breaks arrow continuity")
            else:
                raise ValueError(f"unknown vertex type {t!r}")
            row.append(v)
            rowsum += v
            col[j] += v
        if rowsum != 1:
            raise ValueError(f"row {i} arrows violate the boundary")
        rows.append(row)
    if any(c != 1 for c in col):
        raise ValueError("column arrows violate the boundary")
    return Asm(rows)


# Public names matching the operation surface.
asm_to_six_vertex = from_asm
six_vertex_to_asm = to_asm


def _inv(x):
    return Fraction(1) / x


def _cell_class_counts(a: Asm):
    """Per-ASM cell data: list of (class, i, j) plus per-row/col c-counts."""
    n = a.n
    cells = []
    rho = [0] * n
    gamma = [0] * n
    col = [0] * n
    for i in range(n):
        rowsum = 0
        for j in range(n):
            v = a.entries[i][j]
            if v:
                rho[i] += 1
                gamma[j] += 1
                cells.append(("c", i, j))
            else:
                cells.append(("a" if rowsum == col[j] else "b", i, j))
            rowsum += v
            col[j] += v
    return cells, rho, gamma


def weighted_partition_sum(n: int, s, r):
    """Brute-force weighted DWBC partition sum.

    s: the 2n square roots of the spectral parameters (rows then columns),
    r: square root of the global parameter q.  All exact ring elements.
    """
    if len(s) != 2 * n:
        raise ValueError("need 2n square-root spectral values")
    rinv = _inv(r)
    q = r * r
    qinv = rinv * rinv
    cfac = qinv - q
    z = [si * si for si in s]  # rows: z[0..n-1]; columns: z[n..2n-1]
    total = None
    for a in enumerate_asms(n):
        cells, _rho, _gamma = _cell_class_counts(a)
        weight = 1
        for cls, i, j in cells:
            zr, wc = z[i], z[n + j]
            if cls == "a":
                weight = weight * (rinv * zr - r * wc)
            elif cls == "b":
                weight = weight * (rinv * wc - r * zr)
            else:
                weight = weight * (cfac * s[i] * s[n + j])
        total = weight if total is None else total + weight
    return total


def normalize_Z(ztilde, n: int, s, r):
    """Divide the raw partition sum by its standard normalization so that
    the result is a polynomial of degree n-1 in each spectral parameter
    (and equals the staircase Schur function at q = zeta**2)."""
    rinv = _inv(r)
    q = r * r
    cfac = rinv * rinv - q
    denom = cfac ** n
    for si in s:
        denom = denom * si
    result = ztilde * _inv(denom)
    if (n * (n - 1) // 2) % 2:
        result = -result
    return result


def zn_normalized(n: int, z, r):
    """Normalized partition sum taken directly at spectral parameters z.

    Avoids square roots of the z's: each row and column contains an odd
    number of c-vertices, so after dividing by prod(sqrt(z_i)) only integer
    powers of the z's remain.
    """
    if len(z) != 2 * n:
        raise ValueError("need 2n spectral values")
    rinv = _inv(r)
    q = r * r
    qinv = rinv * rinv
    cfac = qinv - q
    total = None
    for a in enumerate_asms(n):
        cells, rho, gamma = _cell_class_counts(a)
        nc = sum(rho)
        weight = cfac ** (nc - n)
        for cls, i, j in cells:
            if cls == "a":
                weight = weight * (rinv * z[i] - r * z[n + j])
            elif cls == "b":
                weight = weight * (rinv * z[n + j] - r * z[i])
        for i in range(n):
            weight = weight * z[i] ** ((rho[i] - 1) // 2)
        for j in range(n):
            weight = weight * z[n + j] ** ((gamma[j] - 1) // 2)
        total = weight if total is None else total + weight
    if (n * (n - 1) // 2) % 2:
        total = -total
    return total


def refined_from_Z(n: int, t, u, convention: str = "reversed"):
    """Doubly refined counting polynomial evaluated at rational (t, u)
    through the six-vertex partition function at q = zeta**2.

    The first row parameter is specialized to (1+q t)/(q+t); the last column
    parameter to (1+q u)/(q+u) ("reversed") or its reciprocal form
    ("tilde"), with the matching prefactor.
    """
    from .algebra.cyclo import Q3, ZETA

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
