"""Sparse multivariate polynomials over an exact coefficient ring.

A MultiPoly has an explicit ordered variable tuple and a sparse map from
exponent vectors (tuples of ints, one slot per variable) to coefficients.
Exponents are nonnegative in a polynomial; the sum and product loops do not
depend on that, and the truncated series of `series.py` run their Laurent
arithmetic through them.  Coefficients may be int, Fraction or CycloScalar;
`__init__` alone drops zero coefficients.  Instances are treated as immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloScalar


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        cleaned = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError(f"exponent tuple {exps} does not match variables {self.vars}")
                if coeff:
                    cleaned[tuple(exps)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        variables = tuple(variables)
        if not value:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    def align(self, variables) -> "MultiPoly":
        """Re-express over `variables`, in their order: a variable of self
        that is not listed must be unused (exponent 0 everywhere), and a
        listed variable that self lacks gets exponent 0."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        for i, v in enumerate(self.vars):
            if v not in variables and any(e[i] for e in self.terms):
                raise ValueError(f"variable {v} is in use; cannot drop")
        take = [self.vars.index(v) if v in self.vars else None for v in variables]
        return MultiPoly(variables, {
            tuple(0 if i is None else e[i] for i in take): c
            for e, c in self.terms.items()
        })

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction, CycloScalar)):
            return MultiPoly.constant(self.vars, other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def degree(self, name) -> int:
        """Maximum exponent of `name`; -1 for the zero polynomial."""
        idx = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises ValueError if not divisible.
        No code in `src/` calls it; it stays because the perfbench tracer
        hooks it."""
        divisor = self._coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = dict(self.terms)
        quotient = {}
        d_exps = max(divisor.terms)  # the lexicographically leading term
        d_coeff = divisor.terms[d_exps]
        while remainder:
            r_exps = max(remainder)
            r_coeff = remainder[r_exps]
            q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
            if any(e < 0 for e in q_exps):
                raise ValueError("inexact polynomial division")
            q_coeff = _coeff_div(r_coeff, d_coeff)
            quotient[q_exps] = q_coeff
            for e2, c2 in divisor.terms.items():
                exps = tuple(a + b for a, b in zip(q_exps, e2))
                acc = remainder.get(exps, 0) - q_coeff * c2
                if not acc:
                    remainder.pop(exps, None)
                else:
                    remainder[exps] = acc
        return MultiPoly(self.vars, quotient)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps) if e
            )
            if mono:
                parts.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                parts.append(str(coeff))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {self.terms!r})"


def _coeff_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return a / b  # Fraction and CycloScalar promote each other
