"""Exact coefficient rings, sparse polynomials/series and determinants."""

from .cyclo import CycloScalar, ZETA, ONE, Q3, Q3_INV, Q3_HALF, Q3_NEG_HALF
from .poly import MultiPoly
from .series import (
    TruncatedSeries,
    WindowMismatchError,
    ContourSideError,
    residue_at_zero,
    geometric_mul,
    positive_valuation,
)
from .matrix import determinant, determinant_cofactor

__all__ = [
    "CycloScalar", "ZETA", "ONE", "Q3", "Q3_INV", "Q3_HALF", "Q3_NEG_HALF",
    "MultiPoly",
    "TruncatedSeries", "WindowMismatchError", "ContourSideError",
    "residue_at_zero", "geometric_mul", "positive_valuation",
    "determinant", "determinant_cofactor",
]
