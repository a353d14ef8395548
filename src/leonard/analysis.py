"""One parameter array together with the objects derived from it.

The verification routines all read the same few objects of an array: the
split-basis matrices, the polynomial table, the orthogonality data and the
recurrence coefficients.  An Analysis computes each of them on first use and
hands the same result to every later check, so a full scoreboard builds each
object once.  The results live on the Analysis, not on the array: a changed
array (say from dataclasses.replace) needs a new Analysis.
"""

from __future__ import annotations

from functools import cached_property

from .errors import IdentityViolated
from .ortho import OrthoData, ortho_data
from .parray import ParameterArray
from .polys import PolyTable, corresponding_polys
from .recur import RecurrenceCoeffs, recurrence_coeffs
from .splitmat import SplitMatrixSet, _diagonal_inverse, build


class Analysis:
    """Lazily computed, at-most-once derived objects of one array."""

    def __init__(self, p: ParameterArray):
        self.p = p

    @cached_property
    def matrices(self) -> SplitMatrixSet:
        return build(self.p)

    @cached_property
    def polys(self) -> PolyTable:
        table = corresponding_polys(self.p)
        # The evaluation matrices have triangular factorizations; a
        # disagreement would mean a bug in polys or splitmat, not bad input.
        m = self.matrices
        if table.P != m.T * _diagonal_inverse(m.D) * m.Tstar.transpose():
            raise IdentityViolated("evaluation matrix disagrees with T D^-1 T*^t")
        if table.Pdown != m.Z * m.Tdown * _diagonal_inverse(m.Ddown) * m.Tstar.transpose():
            raise IdentityViolated(
                "reversed evaluation matrix disagrees with Z Tdown Ddown^-1 T*^t")
        return table

    @cached_property
    def ortho(self) -> OrthoData:
        return ortho_data(self.p)

    @cached_property
    def recurrence(self) -> RecurrenceCoeffs:
        return recurrence_coeffs(self.p)
