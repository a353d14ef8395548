"""Three-term recurrence and difference-equation data of a parameter array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .fields import FieldElement
from .report import CheckReport
from .splitmat import SquareMatrix

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class RecurrenceCoeffs:
    a: tuple[FieldElement, ...]
    b: tuple[FieldElement, ...]
    c: tuple[FieldElement, ...]
    astar: tuple[FieldElement, ...]
    bstar: tuple[FieldElement, ...]
    cstar: tuple[FieldElement, ...]


def _one_side(theta0: FieldElement,
              below: Sequence[FieldElement],
              above: Sequence[FieldElement],
              varphi: Sequence[FieldElement],
              phi: Sequence[FieldElement]) -> tuple:
    # below and above are the one-sided products of the eigenvalues dual to
    # this side: b_i = varphi_{i+1} below_i / below_{i+1} and
    # c_i = phi_i above_i / above_{i-1}; a balances the row sum against theta_0.
    zero = theta0.field.zero()
    d = len(below) - 1
    b = [varphi[i] * below[i] * below[i + 1].inverse() for i in range(d)] + [zero]
    c = [zero] + [phi[i - 1] * above[i] * above[i - 1].inverse()
                  for i in range(1, d + 1)]
    a = [theta0 - c[i] - b[i] for i in range(d + 1)]
    return tuple(a), tuple(b), tuple(c)


def recurrence_coeffs(a: Analysis) -> RecurrenceCoeffs:
    """The coefficients from the one-sided products of `Analysis.pair`."""
    p, pair = a.p, a.pair
    return RecurrenceCoeffs(
        *_one_side(p.theta[0], *pair.sides_star, p.varphi, p.phi),
        *_one_side(p.theta_star[0], *pair.sides, p.varphi, tuple(reversed(p.phi))))


def _column_failures(report: CheckReport, got: SquareMatrix, want: SquareMatrix,
                     message: str) -> None:
    """Add message.format(i, j) for each entry (j, i) where got and want
    differ, column i by column."""
    pairs = zip(zip(*got.values), zip(*want.values))
    for i, (x, y) in enumerate(pairs):
        for j in range(len(x)):
            if x[j] != y[j]:
                report.add(message.format(i, j))


def verify_three_term(a: Analysis) -> CheckReport:
    """theta_j f_i = c_i f_{i-1} + a_i f_i + b_i f_{i+1} evaluated on the
    eigenvalues, boundary terms omitted: H P = P J with P[j][i] = f_i(theta_j)
    and J tridiagonal with (c_i, a_i, b_i) down column i."""
    p, P, co = a.p, a.polys.P, a.recurrence
    report = CheckReport("three-term")
    J = SquareMatrix.diagonal(p.field, co.a, below=co.b[:-1], above=co.c[1:])
    _column_failures(report, a.pair.H * P, P * J,
                     "recurrence fails for f_{} at theta_{}")
    return report


def verify_difference(a: Analysis) -> CheckReport:
    """theta*_i f_i(theta_j) = c*_j f_i(theta_{j-1}) + a*_j f_i(theta_j)
    + b*_j f_i(theta_{j+1}), boundary terms omitted: P H* = J* P with
    J* tridiagonal with (c*_j, a*_j, b*_j) along row j."""
    p, P, co = a.p, a.polys.P, a.recurrence
    report = CheckReport("difference")
    Jstar = SquareMatrix.diagonal(p.field, co.astar, below=co.cstar[1:],
                                  above=co.bstar[:-1])
    _column_failures(report, P * a.pair.Hstar, Jstar * P,
                     "difference equation fails for f_{} at theta_{}")
    return report


def _alt_checks(th: Sequence[FieldElement], ths: Sequence[FieldElement],
                vp: Sequence[FieldElement], co: tuple, report: CheckReport,
                tag: str) -> None:
    # theta, theta* and varphi of one side
    a, b, c = co
    d = len(th) - 1
    for i in range(1, d + 1):
        ai = th[i] + vp[i - 1] * (ths[i] - ths[i - 1]).inverse()
        if i < d:
            ai = ai + vp[i] * (ths[i] - ths[i + 1]).inverse()
        if a[i] != ai:
            report.add(f"{tag}a_{'d' if i == d else i} closed form fails")
    for i in range(1, d + 1):
        lhs = c[i] * (ths[i - 1] - ths[i])
        if i < d:
            lhs = lhs - b[i] * (ths[i] - ths[i + 1])
        if lhs != (th[1] - th[0]) * (ths[i] - ths[0]) + vp[0]:
            report.add(f"{tag}weighted b/c difference identity fails at {i}")


def verify_alt_formulas(a: Analysis) -> CheckReport:
    """For 1 <= i <= d, a_i against theta_i + varphi_i / (theta*_i -
    theta*_{i-1}) + varphi_{i+1} / (theta*_i - theta*_{i+1}), and the
    weighted difference identity c_i (theta*_{i-1} - theta*_i) - b_i
    (theta*_i - theta*_{i+1}) = (theta_1 - theta_0)(theta*_i - theta*_0)
    + varphi_1, the theta*_{i+1} terms absent at i = d (where the identity
    is PA4 at d); on the array, and on its dual (theta*, theta, varphi).

    The other closed forms are identities of `recurrence_coeffs`: a_0, b_0,
    c_d and the weighted identity at 0 follow from its b_0 and c_d, and for
    0 < i < d the closed forms of b_i and c_i are the weighted identity at
    i scaled by nonzero differences of theta*, since a_i = theta_0 - b_i -
    c_i.  a_d is not one: at d >= 3 it can fail where PA1-PA4 hold and PA5
    does not.  Skipped at d = 0, where there are no interior coefficients."""
    p = a.p
    if p.d < 1:
        return CheckReport("alt-recurrence",
                           skipped="no interior coefficients at d = 0")
    report = CheckReport("alt-recurrence")
    co = a.recurrence
    _alt_checks(p.theta, p.theta_star, p.varphi, (co.a, co.b, co.c), report, "")
    _alt_checks(p.theta_star, p.theta, p.varphi, (co.astar, co.bstar, co.cstar),
                report, "dual ")
    return report
