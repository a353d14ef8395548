"""One parameter array together with the objects derived from it.

The verification routines all read the same few objects of an array: the
products of differences of its (theta, theta*) pair, the prefix products of
its (varphi, phi) split sequences, the split-basis matrices, the polynomial
table (the evaluation matrices P and Pdown), the orthogonality data and the
recurrence coefficients.  An Analysis computes each of them on first use
and hands the same result to every later check, so a full scoreboard builds
each object once.  `build`, `corresponding_polys`, `ortho_data` and
`recurrence_coeffs` take the Analysis and read T, T*, Tdown and the
one-sided products from `pair`, which depends on (theta, theta*) alone, and
the diagonals of D and Ddown from `splits`, which depends on (varphi, phi)
alone; `alphas` (`proportionality_alphas`) reads `splits` too, once for
both checks that compare with it.  Neither layer inverts
anything, so a repeated eigenvalue or a zero varphi_i or phi_i gives zeros
there, and each reader raises where it divides.  The results live on the
Analysis, not on the array: a changed array (say from dataclasses.replace)
needs a new Analysis.
"""

from __future__ import annotations

from functools import cached_property

from .fields import FieldElement
from .ortho import OrthoData, ortho_data
from .parray import ParameterArray
from .polys import PolyTable, corresponding_polys, proportionality_alphas
from .recur import RecurrenceCoeffs, recurrence_coeffs
from .splitmat import (PairProducts, SplitMatrixSet, SplitProducts, build, pair_products,
                       split_products)


class Analysis:
    """Lazily computed, at-most-once derived objects of one array."""

    def __init__(self, p: ParameterArray):
        self.p = p

    @cached_property
    def pair(self) -> PairProducts:
        return pair_products(self.p.field, self.p.theta, self.p.theta_star)

    @cached_property
    def splits(self) -> SplitProducts:
        return split_products(self.p.field, self.p.varphi, self.p.phi)

    @cached_property
    def matrices(self) -> SplitMatrixSet:
        return build(self)

    @cached_property
    def polys(self) -> PolyTable:
        return corresponding_polys(self)

    @cached_property
    def alphas(self) -> list[FieldElement]:
        return proportionality_alphas(self)

    @cached_property
    def ortho(self) -> OrthoData:
        return ortho_data(self)

    @cached_property
    def recurrence(self) -> RecurrenceCoeffs:
        return recurrence_coeffs(self)
