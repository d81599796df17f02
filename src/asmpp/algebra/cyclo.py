"""Exact arithmetic in the smallest cyclotomic field containing a primitive
sixth root of unity.

Every constant needed when the six-vertex global parameter is specialized to
the cubic root of unity lives in Q(zeta), where zeta = exp(i*pi/3) satisfies

    zeta**2 = zeta - 1.

The cubic root of unity itself is q = zeta**2, its square roots are
q**(1/2) = zeta and q**(-1/2) = 1 - zeta (check: zeta * (1 - zeta) =
zeta - zeta**2 = 1).

An element is stored as one triple of ints (n0, n1, d), meaning
(n0 + n1*zeta) / d, in canonical form: d > 0 and gcd(n0, n1, d) = 1.  Every
element has exactly one such triple, so equality is a comparison of triples,
and an element of Z[zeta] (such as every entry of a Bareiss elimination over
Z[zeta]) has d = 1 and is kept on two plain ints.  Sums, differences and
products are int operations followed by one three-argument gcd, skipped when
d = 1.  The rational coordinates c0 = n0/d and c1 = n1/d, the norm and the
printed forms are `Fraction`s built only at that boundary.

Loops that stay in Z[zeta] (the scalar Bareiss kernel of `matrix.py` and
the elementary symmetric sums of `schur.py`) skip the objects and work on
int pairs (n0, n1): `scaled_pairs` clears the denominators of a list of
values with one common factor, `pair_mul` is the product rule and
`pair_div` the exact quotient, through the conjugate and the norm.

All operations are exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_Rat = (int, Fraction)


def _make(n0, n1, d):
    """The element (n0 + n1*zeta)/d, for ints n0, n1 and d > 0."""
    if d != 1:
        g = gcd(n0, n1, d)
        if g != 1:
            n0, n1, d = n0 // g, n1 // g, d // g
    z = _new(CycloScalar)
    _set_t(z, (n0, n1, d))
    return z


class CycloScalar:
    """(n0 + n1*zeta)/d with zeta**2 = zeta - 1; immutable and hashable."""

    __slots__ = ("_t",)

    from_ints = staticmethod(_make)

    def __init__(self, c0=0, c1=0):
        if not (isinstance(c0, _Rat) and isinstance(c1, _Rat)):
            raise TypeError("CycloScalar coefficients must be int or Fraction, "
                            f"not {type(c0).__name__} and {type(c1).__name__}")
        d0, d1 = c0.denominator, c1.denominator
        d = lcm(d0, d1)  # both are in lowest terms, so the triple is canonical
        _set_t(self, (c0.numerator * (d // d0), c1.numerator * (d // d1), d))

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    def __reduce__(self):
        return CycloScalar, (self.c0, self.c1)

    # -- coercion and the rational boundary --------------------------------

    @staticmethod
    def coerce(value) -> "CycloScalar":
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, _Rat):
            return _make(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloScalar")

    @property
    def c0(self) -> Fraction:
        n0, _, d = self._t
        return Fraction(n0, d)

    @property
    def c1(self) -> Fraction:
        _, n1, d = self._t
        return Fraction(n1, d)

    def is_rational(self) -> bool:
        return self._t[1] == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.c0

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycloScalar:
            try:
                other = CycloScalar.coerce(other)
            except TypeError:
                return NotImplemented
        a0, a1, da = self._t
        b0, b1, db = other._t
        if da == db:
            return _make(a0 + b0, a1 + b1, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, d = self._t
        return _make(-n0, -n1, d)

    def __sub__(self, other):
        if type(other) is not CycloScalar:
            try:
                other = CycloScalar.coerce(other)
            except TypeError:
                return NotImplemented
        a0, a1, da = self._t
        b0, b1, db = other._t
        if da == db:
            return _make(a0 - b0, a1 - b1, da)
        return _make(a0 * db - b0 * da, a1 * db - b1 * da, da * db)

    def __rsub__(self, other):
        return CycloScalar.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not CycloScalar:
            try:
                other = CycloScalar.coerce(other)
            except TypeError:
                return NotImplemented
        a0, a1, da = self._t
        b0, b1, db = other._t
        # (a0 + a1 z)(b0 + b1 z) with z^2 = z - 1
        a1b1 = a1 * b1
        return _make(a0 * b0 - a1b1, a0 * b1 + a1 * b0 + a1b1, da * db)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloScalar":
        """Image under zeta -> 1 - zeta (the nontrivial field automorphism)."""
        n0, n1, d = self._t
        return _make(n0 + n1, -n1, d)

    def _norm_numerator(self) -> int:
        # self * self.conjugate() is rational: (n0^2 + n0*n1 + n1^2) / d^2
        n0, n1, _ = self._t
        return n0 * n0 + n0 * n1 + n1 * n1

    def norm(self) -> Fraction:
        d = self._t[2]
        return Fraction(self._norm_numerator(), d * d)

    def inverse(self) -> "CycloScalar":
        nrm = self._norm_numerator()
        if nrm == 0:
            raise ZeroDivisionError("division by zero CycloScalar")
        n0, n1, d = self._t
        # d * conjugate / (n0^2 + n0*n1 + n1^2); the form is positive definite
        return _make(d * (n0 + n1), -d * n1, nrm)

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
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloScalar):
            return self._t == other._t
        if isinstance(other, _Rat):
            return self._t == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        n0, n1, d = self._t
        if d == 1:  # hash(Fraction(k)) == hash(k)
            return hash(n0) if n1 == 0 else hash((n0, n1))
        if n1 == 0:
            return hash(self.c0)
        return hash((self.c0, self.c1))

    def __bool__(self):
        return self._t[0] != 0 or self._t[1] != 0

    def __repr__(self):
        if self.is_rational():
            return f"CycloScalar({self.c0})"
        return f"CycloScalar({self.c0}, {self.c1})"

    def __str__(self):
        c0, c1 = self.c0, self.c1
        if c1 == 0:
            return str(c0)
        if c0 == 0:
            return f"{c1}*zeta"
        sign = "+" if c1 > 0 else "-"
        return f"{c0} {sign} {abs(c1)}*zeta"


def pair_mul(a0, a1, b0, b1):
    """(a0 + a1*zeta)(b0 + b1*zeta) as an int pair, by zeta**2 = zeta - 1."""
    a1b1 = a1 * b1
    return a0 * b0 - a1b1, a0 * b1 + a1 * b0 + a1b1


def pair_div(a0, a1, b0, b1):
    """The quotient (a0 + a1*zeta)/(b0 + b1*zeta) as an int pair, when it
    lies in Z[zeta]: a times the conjugate (b0 + b1) - b1*zeta, divided by
    the norm b0**2 + b0*b1 + b1**2.  Raises ValueError when the quotient is
    not in Z[zeta]."""
    c0, c1 = pair_mul(a0, a1, b0 + b1, -b1)
    norm = b0 * b0 + b0 * b1 + b1 * b1
    q0, r0 = divmod(c0, norm)
    q1, r1 = divmod(c1, norm)
    if r0 or r1:
        raise ValueError(f"inexact division ({a0} + {a1}*zeta)/({b0} + {b1}*zeta)")
    return q0, q1


def scaled_pairs(values):
    """(pairs, d): d is the lcm of the denominators of `values` (ints,
    Fractions or CycloScalars), and d*values[i] = n0 + n1*zeta for
    (n0, n1) = pairs[i]."""
    triples = [v._t if isinstance(v, CycloScalar) else (v.numerator, 0, v.denominator)
               for v in values]
    d = lcm(*(t[2] for t in triples))
    return [(n0 * (d // e), n1 * (d // e)) for n0, n1, e in triples], d


_new = object.__new__
_set_t = CycloScalar._t.__set__  # the slot's own setter, past the guard

ZETA = _make(0, 1, 1)
ONE = _make(1, 0, 1)

# q = zeta^2 is a primitive cubic root of unity: q^2 + q + 1 = 0.
Q3 = ZETA * ZETA
Q3_INV = Q3 * Q3
# Square roots of q used by the vertex weights.
Q3_HALF = ZETA
Q3_NEG_HALF = ONE - ZETA
