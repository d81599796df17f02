"""Truncated sparse multivariate Laurent series.

This is the formal-residue engine's data structure: contour integrals are
evaluated as coefficient extraction, so "integration" is multiplication of
Laurent series followed by taking the coefficient of v**-1.

Each series carries a per-variable window [lo, hi]; terms falling outside a
window are discarded during arithmetic (lo/hi may be None for "unbounded").
Within the window everything is exact: coefficients are int, Fraction or
CycloScalar and are never rounded.
"""

from __future__ import annotations

from .cyclo import CycloScalar
from .poly import MultiPoly


class WindowMismatchError(ValueError):
    """Operands disagree on variables or windows."""


class ContourSideError(ValueError):
    """A geometric factor's pole would sit on the wrong side of the contour."""


def _inside(exps, window):
    for e, (lo, hi) in zip(exps, window):
        if lo is not None and e < lo:
            return False
        if hi is not None and e > hi:
            return False
    return True


class TruncatedSeries:
    __slots__ = ("vars", "window", "terms")

    def __init__(self, variables, window, terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "window", tuple(tuple(w) for w in window))
        if len(self.window) != len(self.vars):
            raise ValueError("one window per variable required")
        kept = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if coeff and _inside(exps, self.window):
                    kept[exps] = coeff
        object.__setattr__(self, "terms", kept)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, variables, window, value):
        n = len(tuple(variables))
        return cls(variables, window, {(0,) * n: value})

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars or self.window != other.window:
            raise WindowMismatchError(
                f"({self.vars}, {self.window}) vs ({other.vars}, {other.window})"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return TruncatedSeries(self.vars, self.window, terms)

    def __neg__(self):
        return TruncatedSeries(
            self.vars, self.window, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.mul_poly(MultiPoly(other.vars, other.terms))

    def scale(self, coeff) -> "TruncatedSeries":
        if not coeff:
            return TruncatedSeries(self.vars, self.window)
        return TruncatedSeries(
            self.vars, self.window, {e: coeff * c for e, c in self.terms.items()}
        )

    def mul_poly(self, poly: MultiPoly) -> "TruncatedSeries":
        """Multiply by an untruncated polynomial; only the product is
        windowed (the polynomial itself may well lie outside the window)."""
        lifted = poly.align(self.vars)
        window = self.window
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in lifted.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if not _inside(exps, window):
                    continue
                acc = terms.get(exps, 0) + c1 * c2
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        return TruncatedSeries(self.vars, window, terms)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.window == other.window
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # -- extraction -----------------------------------------------------------------

    def coefficient_slice(self, name, exponent) -> "TruncatedSeries":
        """The coefficient of name**exponent, as a series in the other variables."""
        idx = self.vars.index(name)
        variables = self.vars[:idx] + self.vars[idx + 1:]
        window = self.window[:idx] + self.window[idx + 1:]
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == exponent:
                terms[exps[:idx] + exps[idx + 1:]] = coeff
        return TruncatedSeries(variables, window, terms)

    def to_poly(self) -> MultiPoly:
        for exps in self.terms:
            if any(e < 0 for e in exps):
                raise ValueError("series has negative exponents; not a polynomial")
        return MultiPoly(self.vars, self.terms)

    def __repr__(self):
        return f"TruncatedSeries({self.vars!r}, {self.window!r}, {len(self.terms)} terms)"


def residue_at_zero(f: TruncatedSeries, name) -> TruncatedSeries:
    """Coefficient of name**-1: the formal residue of a counterclockwise
    contour around the origin in that variable."""
    idx = f.vars.index(name)
    lo, _hi = f.window[idx]
    if lo is not None and lo > -1:
        raise ValueError(f"window for {name} does not include exponent -1")
    return f.coefficient_slice(name, -1)


def positive_valuation(g, in_vars) -> bool:
    """True iff every term of g has total degree >= 1 in `in_vars`."""
    variables, terms = g.vars, g.terms
    idxs = [variables.index(v) for v in in_vars if v in variables]
    for exps in terms:
        if sum(exps[i] for i in idxs) < 1:
            return False
    return True


def geometric_mul(s: TruncatedSeries, g: MultiPoly, in_vars) -> TruncatedSeries:
    """s * (1 + g + g**2 + ...), i.e. multiplication by 1/(1-g).

    Requires g to have positive valuation in the contour variables `in_vars`,
    which is exactly the statement that the pole of 1/(1-g) lies outside the
    small contours around the origin.  Terminates because every in_var window
    is finite above and each g power raises the valuation.
    """
    lifted = g.align(s.vars)
    if not positive_valuation(lifted, in_vars):
        raise ContourSideError(
            "geometric factor has a term of degree 0 in the contour variables"
        )
    for v in in_vars:
        if v in s.vars:
            hi = s.window[s.vars.index(v)][1]
            if hi is None:
                raise ValueError(f"contour variable {v} needs a finite upper window")
    total = s
    acc = s
    while True:
        acc = acc.mul_poly(lifted)
        if not acc:
            return total
        total = total + acc
