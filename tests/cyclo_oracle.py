"""The two-`Fraction` Q(zeta) scalar, kept as the oracle for `CycloScalar`.

This is the representation `asmpp.algebra.cyclo.CycloScalar` had before it
moved to one canonical triple of ints: c0 + c1*zeta with zeta**2 = zeta - 1
and c0, c1 `Fraction`s, every operation spelled out on the coordinates.  The
tests check that the int-backed class agrees with it on every operation and
on its printed forms.
"""

from fractions import Fraction

_Rat = (int, Fraction)


class CycloScalar:
    """c0 + c1*zeta with zeta**2 = zeta - 1; immutable and hashable."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0=0, c1=0):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(value) -> "CycloScalar":
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, _Rat):
            return CycloScalar(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloScalar")

    def is_rational(self) -> bool:
        return self.c1 == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c0

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        try:
            other = CycloScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return CycloScalar(self.c0 + other.c0, self.c1 + other.c1)

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(-self.c0, -self.c1)

    def __sub__(self, other):
        try:
            other = CycloScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return CycloScalar(self.c0 - other.c0, self.c1 - other.c1)

    def __rsub__(self, other):
        return CycloScalar.coerce(other) - self

    def __mul__(self, other):
        try:
            other = CycloScalar.coerce(other)
        except TypeError:
            return NotImplemented
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        # (a0 + a1 z)(b0 + b1 z) with z^2 = z - 1
        return CycloScalar(a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloScalar":
        """Image under zeta -> 1 - zeta (the nontrivial field automorphism)."""
        return CycloScalar(self.c0 + self.c1, -self.c1)

    def norm(self) -> Fraction:
        # self * self.conjugate() is rational: c0^2 + c0*c1 + c1^2
        return self.c0 * self.c0 + self.c0 * self.c1 + self.c1 * self.c1

    def inverse(self) -> "CycloScalar":
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by zero CycloScalar")
        conj = self.conjugate()
        return CycloScalar(conj.c0 / nrm, conj.c1 / nrm)

    def __truediv__(self, other):
        try:
            other = CycloScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloScalar.coerce(other) * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = CycloScalar(1)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _Rat):
            return self.c1 == 0 and self.c0 == other
        if isinstance(other, CycloScalar):
            return self.c0 == other.c0 and self.c1 == other.c1
        return NotImplemented

    def __hash__(self):
        if self.c1 == 0:
            return hash(self.c0)
        return hash((self.c0, self.c1))

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def __repr__(self):
        if self.c1 == 0:
            return f"CycloScalar({self.c0})"
        return f"CycloScalar({self.c0}, {self.c1})"

    def __str__(self):
        if self.c1 == 0:
            return str(self.c0)
        if self.c0 == 0:
            return f"{self.c1}*zeta"
        sign = "+" if self.c1 > 0 else "-"
        return f"{self.c0} {sign} {abs(self.c1)}*zeta"


