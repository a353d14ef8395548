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
inverted here entry by entry).  Row i of T holds the Newton basis
(lambda - theta_0) .. (lambda - theta_{n-1}) at theta_i, so row n of
D^-1 T*^t holds the Newton coefficients of the f_i (Terwilliger's
condition (iii)).  The dual array swaps theta with theta* and keeps
varphi, so its table T* D^-1 T^t is P^t, and the duality f_i(theta_j) =
f*_j(theta*_i) holds by construction.  The Horner f* table of the tests
is its independent check.  The scalar that relates f_i to its reversed
companion is alpha_i = Ddown_i / D_i, the ratio of the products of phi
and of varphi.

A passing verify forms neither P nor Pdown.  The endpoint values
f_i(theta_d) are row d of T times D^-1 T*^t (`endpoint_evaluations`), and
proportionality is decided on T* by one intertwining test
(`verify_proportionality`); both are O(d^2).  P and Pdown (`corresponding_polys`, `Analysis.polys`) are
formed where that test cannot decide or fails, and for the `poly-table`
dump; duality keeps the exception forming them raises (`require_table`).
`endpoint_values` compares f_i(theta_d) with alpha_i; its weighted form,
k_i f_i(theta_d) = above*_0 / (below*_i above*_i) with the one-sided
products of theta*, is how `ortho_data` defines k_i, so it is only read,
not compared.

Like the layers they are read from, the tables and the alphas hold
payloads, and every comparison here compares payload tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from .report import CheckReport
from .splitmat import SquareMatrix, _payloads

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
    varphi_i or phi_i raises ZeroDivisionError.  The diagonal factors are
    column scalings, so each table is one kernel call."""
    p, pair, inv = a.p, a.pair, a.p.field._checked_inv
    Dinv, Ddown_inv = ([inv(x) for x in c] for c in (a.splits.D, a.splits.Ddown))
    Tstar_t = pair.Tstar.transpose()
    down = pair.Tdown.scale_columns(Ddown_inv) * Tstar_t
    return PolyTable(P=pair.T.scale_columns(Dinv) * Tstar_t,
                     Pdown=SquareMatrix(p.field, p.d + 1, down.values[::-1]))


def proportionality_alphas(a: Analysis) -> list:
    """The payloads of alpha_0 .. alpha_d, alpha_i = (phi_1 .. phi_i) /
    (varphi_1 .. varphi_i) = Ddown_i / D_i; a zero varphi_i raises
    ZeroDivisionError."""
    F = a.p.field
    mul, inv = F._mul, F._checked_inv
    return [mul(y, inv(x)) for x, y in zip(a.splits.D, a.splits.Ddown)]


def require_table(a: Analysis) -> None:
    """Raise the ZeroDivisionError that forming P and Pdown raises, where a
    varphi_i or phi_i is zero: the checks that read P's values off T and
    T* keep the exception of the table through it."""
    F = a.p.field
    if F.zero_value in a.splits.D or F.zero_value in a.splits.Ddown:
        F._checked_inv(F.zero_value)


def _companions_recur(a: Analysis) -> bool:
    """Whether g_i = alpha_i fdown_i satisfy the recurrence H g = g J of
    the f_i, decided on T*: Pdown = Z Tdown Ddown^-1 T*^t, and H Z Tdown =
    Z Tdown N, with N lower bidiagonal, theta_{d-n} on the diagonal and
    ones below, so where PA1 and PA2 hold that is

        (diag alpha)^-1 J^t (diag alpha) T* = T* B',

    B' with theta_{d-n} on the diagonal and phi above it.  J's bands scale
    by alpha_{i+1} / alpha_i = phi_{i+1} / varphi_{i+1}."""
    p, F = a.p, a.p.field
    mul, inv = F._mul, F._checked_inv
    diagonal, b, c = a.recurrence.values[:3]
    alphas = a.alphas
    inverses = [inv(x) for x in alphas]
    L = (diagonal, [mul(mul(x, y), z) for x, y, z in zip(c[1:], alphas, inverses[1:])],
         [mul(mul(x, y), z) for x, y, z in zip(b, alphas[1:], inverses)])
    R = (_payloads(p.theta[::-1]), (), _payloads(p.phi))
    return not F._intertwining_failures(L, a.pair.Tstar.values, R)


def verify_proportionality(a: Analysis) -> CheckReport:
    """Each f_i is alpha_i times its reversed companion; reports the first i
    where it is not.

    Where PA1 and PA2 hold, b_i = varphi_{i+1} below*_i / below*_{i+1} is
    nonzero for i < d, and a recurrence with nonzero b_i fixes its
    sequence from the first term (Chihara, ch. I).  So where the three-term
    comparison passes, the f_i satisfy H f = f J, and so do the g_i =
    alpha_i fdown_i exactly where they equal the f_i, since f_0 = g_0 = 1.
    That is one intertwining test on T* (`_companions_recur`), made before
    the comparison is read, so an array that fails it goes to the tables
    without forming the comparison's lines.

    Otherwise, and to write the line where that test fails, the tables
    are compared.  Both sides have degree at most d, so on an array with
    distinct theta_0 .. theta_d they are equal exactly when they agree at
    every theta_j: P[j][i] = alpha_i Pdown[j][i], that is P = Pdown
    diag(alpha).  Column i of P is compared with alpha_i times column i of
    Pdown, one column at a time, so Pdown diag(alpha) is not formed and
    the columns after the first failing one are not scaled."""
    if a.pa1_pa2 and _companions_recur(a) and not a.three_term.failures:
        return CheckReport("proportionality")
    polys = a.polys
    F = polys.P.field
    mul, zero = F._mul, F.zero_value
    report = CheckReport("proportionality")
    columns = zip(zip(*polys.P.values), zip(*polys.Pdown.values), a.alphas)
    for i, (got, down, alpha) in enumerate(columns):
        if got != tuple([mul(x, alpha) if x != zero and alpha != zero else zero
                         for x in down]):
            report.add(f"f_{i} is not alpha_{i} times its reversed companion")
            break
    return report


def endpoint_evaluations(a: Analysis) -> tuple:
    """The payloads of f_i(theta_d), the last row of P: row d of T times
    D^-1 T*^t, n^2 / 2 products on the triangular factors, with no P
    formed.  Raises where forming P raises (`require_table`)."""
    require_table(a)
    F = a.p.field
    mul, add, inv = F._mul, F._add, F._checked_inv
    w = [mul(x, inv(y)) for x, y in zip(a.pair.T.values[a.p.d], a.splits.D)]
    return tuple([reduce(add, [mul(x, y) for x, y in zip(w, row[:i + 1])])
                  for i, row in enumerate(a.pair.Tstar.values)])


def endpoint_values(a: Analysis) -> CheckReport:
    """f_i(theta_d) against the phi/varphi ratio form alpha_i, then the
    weighted form k_i f_i(theta_d) = above*_0 / (below*_i above*_i), with
    below* and above* the one-sided products of theta*; reports the first
    failure.  ortho_data defines k_i as above*_0 / (alpha_i below*_i
    above*_i), so once f_i(theta_d) = alpha_i the weighted form holds
    identically and can add no line.  It is read as a.ortho, which raises
    where the weights cannot be formed, as for a repeated theta*_i."""
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
    wherever the table can be formed, and no table is formed: the check
    raises where forming it raises, as for a zero varphi_i
    (`require_table`).  The tests check the identity against the Horner f*
    table."""
    require_table(a)
    return CheckReport("duality")
