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
there, and each reader raises where it divides.

Every layer holds payloads, as a SquareMatrix does: the one-sided
products and the prefix products, the alphas, the weights and nu, and the
recurrence coefficients.  The checks compare payload tuples and build no
FieldElement from them; `OrthoData` and `RecurrenceCoeffs` wrap theirs in
elements by name, on first read, for the `weights` and `recurrence` dumps
and the tests.  `matrices` holds what the checks read, T, T*, Tdown and
G (formed from A G = G B, with no inverse), and forms T^-1, A, B, A*, B*,
D, Ddown, Z, H and H* only when the `matrices` dump, the dense Leonard
blocks or a test reads them.

The three-term and difference comparisons (`three_term`, `difference`)
hold the bands of the recurrence matrices J and J* with the lines where
the table P fails H P = P J and P H* = J* P, each found by one
intertwining test (`Field._intertwining_failures`) that forms neither
side.  Their two checks print the lines.  Where both lists are empty,
`verify_leonard_conditions` reads its two blocks off those bands, and
`verify_orthogonality` fixes the row Gram from J and its first row: the
cubic products those two checks made before run only when a comparison
fails.

The results live on the Analysis, not on the array: a changed array (say
from dataclasses.replace) needs a new Analysis.
"""

from __future__ import annotations

from functools import cached_property

from .ortho import OrthoData, ortho_data
from .parray import ParameterArray
from .polys import PolyTable, corresponding_polys, proportionality_alphas
from .recur import (Comparison, RecurrenceCoeffs, difference_comparison, recurrence_coeffs,
                    three_term_comparison)
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
    def alphas(self) -> list:
        return proportionality_alphas(self)

    @cached_property
    def ortho(self) -> OrthoData:
        return ortho_data(self)

    @cached_property
    def recurrence(self) -> RecurrenceCoeffs:
        return recurrence_coeffs(self)

    @cached_property
    def three_term(self) -> Comparison:
        return three_term_comparison(self)

    @cached_property
    def difference(self) -> Comparison:
        return difference_comparison(self)
