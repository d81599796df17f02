"""Bivariate generating polynomials with nonnegative integer coefficients.

Used for the doubly refined counts: the boundary-statistic polynomial of
alternating sign matrices in either index convention, and the vertical-step
polynomials of the lattice-path objects.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra.poly import MultiPoly


class GenPoly:
    """Polynomial sum over objects of x**i * y**j."""

    __slots__ = ("coeffs",)

    def __init__(self):
        self.coeffs = {}

    @classmethod
    def from_poly(cls, poly) -> "GenPoly":
        """The GenPoly of a MultiPoly in x and y (exponents read by variable
        name; other variables must be unused) or of a scalar constant; a
        non-integer coefficient or a term in another variable raises
        ValueError."""
        if not isinstance(poly, MultiPoly):
            poly = MultiPoly((), {(): poly})
        result = cls()
        for exps, coeff in poly.terms.items():
            value = Fraction(coeff)
            if value.denominator != 1:
                raise ValueError(f"coefficient {value} is not an integer")
            named = {v: e for v, e in zip(poly.vars, exps) if e}
            if other := set(named) - {"x", "y"}:
                raise ValueError(f"variable {min(other)} is not x or y")
            result.add_term(named.get("x", 0), named.get("y", 0), int(value))
        return result

    @classmethod
    def from_packed(cls, packed, n, width) -> "GenPoly":
        """The GenPoly whose x**i * y**j coefficient (0 <= i < n) is the
        balanced width-bit field of the int `packed` at bit (i + j*n) * width:
        a field from 2**(width-1) up stands for itself minus 2**width and
        borrows 1 from the rest.  Fields are read until the int is used up, so
        no y-degree is cut off."""
        result = cls()
        half, mask = 1 << (width - 1), (1 << width) - 1
        k = 0
        while packed:
            count = ((packed + half) & mask) - half
            packed = (packed - count) >> width
            if count:
                result.add_term(k % n, k // n, count)
            k += 1
        return result

    def add_term(self, i, j, count=1):
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        key = (i, j)
        self.coeffs[key] = self.coeffs.get(key, 0) + count
        if not self.coeffs[key]:
            del self.coeffs[key]

    def total(self) -> int:
        """Coefficient sum: the number of objects counted."""
        return sum(self.coeffs.values())

    def max_degree(self) -> tuple:
        if not self.coeffs:
            return (-1, -1)
        return (max(i for i, _ in self.coeffs), max(j for _, j in self.coeffs))

    def coefficient_matrix(self):
        """Dense (deg_x+1) x (deg_y+1) matrix of coefficients."""
        dx, dy = self.max_degree()
        mat = [[0] * (dy + 1) for _ in range(dx + 1)]
        for (i, j), c in self.coeffs.items():
            mat[i][j] = c
        return mat

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if j:
                mono.append("y" if j == 1 else f"y^{j}")
            body = "*".join(mono)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"GenPoly({self.coeffs!r})"

    def to_json_dict(self):
        return {f"({i},{j})": c for (i, j), c in sorted(self.coeffs.items())}
