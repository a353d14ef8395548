"""Polynomials attached to a parameter array, held by their values.

The central objects are the sequence f_0 .. f_d built from theta, theta*,
and the varphi column, the companion sequence built after reversing theta
and switching to the phi column, and the starred sequence obtained from the
dual array.  deg f_i = i, so PA1's d + 1 distinct theta_j determine each
f_i from its values f_i(theta_j), and every identity checked here is an
identity between evaluation matrices.  Each matrix has one construction,
from the triangular factors of the split basis:

    f_j(theta_i) = sum over n of T[i][n] T*[j][n] / (varphi_1 .. varphi_n),

that is T D^-1 T*^t, with T and T* the products of differences of theta and
theta* (`Analysis.pair`, the factors that `build` reads too) and D the
diagonal of prefix products D_i = varphi_1 .. varphi_i (`Analysis.splits`,
inverted here entry by entry).  The dual array swaps theta with theta* and
keeps varphi, so its table T* D^-1 T^t is P^t, and the duality
f_i(theta_j) = f*_j(theta*_i) holds by construction.  The Horner f* table
of the tests is its independent check.  The scalar that relates f_i to its
reversed companion is alpha_i = Ddown_i / D_i, the ratio of the products
of phi and of varphi.  `endpoint_values` compares f_i(theta_d) with
alpha_i; its weighted form, k_i f_i(theta_d) = above*_0 / (below*_i
above*_i) with the one-sided products of theta*, is how `ortho_data`
defines k_i, so it is only read, not compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fields import FieldElement
from .report import CheckReport
from .splitmat import SquareMatrix

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class PolyTable:
    """P[i][j] = f_j(theta_i) and Pdown[i][j] = fdown_j(theta_i) for the
    reversed companion."""

    P: SquareMatrix
    Pdown: SquareMatrix


def corresponding_polys(a: Analysis) -> PolyTable:
    """P = T D^-1 T*^t and Pdown = Z Tdown Ddown^-1 T*^t, where Z only
    reverses the rows.  The inverses are taken entry by entry, so a zero
    varphi_i or phi_i raises ZeroDivisionError."""
    p, pair = a.p, a.pair
    F = p.field
    Dinv, Ddown_inv = (SquareMatrix.diagonal(F, [x.inverse() for x in c])
                       for c in (a.splits.D, a.splits.Ddown))
    Tstar_t = pair.Tstar.transpose()
    down = pair.Tdown * Ddown_inv * Tstar_t
    return PolyTable(P=pair.T * Dinv * Tstar_t,
                     Pdown=SquareMatrix(F, p.d + 1, down.values[::-1]))


def proportionality_alphas(a: Analysis) -> list[FieldElement]:
    """alpha_0 .. alpha_d, alpha_i = (phi_1 .. phi_i) / (varphi_1 .. varphi_i)
    = Ddown_i / D_i; a zero varphi_i raises ZeroDivisionError."""
    return [y * x.inverse() for x, y in zip(a.splits.D, a.splits.Ddown)]


def verify_proportionality(a: Analysis) -> CheckReport:
    """Each f_i is alpha_i times its reversed companion; reports the first i
    where it is not.  Both sides have degree at most d, so on an array with
    distinct theta_0 .. theta_d they are equal exactly when they agree at
    every theta_j: P[j][i] = alpha_i Pdown[j][i]."""
    P, Pdown = a.polys.P.rows, a.polys.Pdown.rows
    report = CheckReport("proportionality")
    for i, alpha in enumerate(a.alphas):
        if any(row[i] != alpha * down[i] for row, down in zip(P, Pdown)):
            report.add(f"f_{i} is not alpha_{i} times its reversed companion")
            break
    return report


def endpoint_evaluations(a: Analysis) -> list[FieldElement]:
    """The values f_i(theta_d), the last row of P."""
    return list(a.polys.P.rows[a.p.d])


def endpoint_values(a: Analysis) -> CheckReport:
    """f_i(theta_d) against the phi/varphi ratio form alpha_i, then the
    weighted form k_i f_i(theta_d) = above*_0 / (below*_i above*_i), with
    below* and above* the one-sided products of theta*; reports the first
    failure.  ortho_data defines k_i as above*_0 / (alpha_i below*_i
    above*_i), so once f_i(theta_d) = alpha_i the weighted form holds
    identically and can add no line.  It is read as a.ortho, which raises
    where the weights cannot be formed, as for a repeated theta*_i, just as
    duality_check reads a.polys."""
    report = CheckReport("endpoint-values")
    vals = endpoint_evaluations(a)
    for i, alpha in enumerate(a.alphas):
        if vals[i] != alpha:
            report.add(f"f_{i}(theta_d) differs from the phi/varphi cumulative ratio")
            return report
    a.ortho
    return report


def duality_check(a: Analysis) -> CheckReport:
    """f_i(theta_j) = f*_j(theta*_i) for every i and j.  The starred table
    T* D^-1 T^t is the transpose of P = T D^-1 T*^t, because star swaps
    theta with theta* and keeps varphi.  So the report has no failure
    wherever the table can be built; reading it raises where it cannot, as
    for a zero varphi_i.  The tests check the identity against the Horner
    f* table."""
    a.polys
    return CheckReport("duality")
