"""Three-term recurrence and difference-equation data of a parameter array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .fields import Field, FieldElement
from .parray import ParameterArray, d4_apply
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


def _tridiagonal(field: Field, c, a, b) -> SquareMatrix:
    # (c_i, a_i, b_i) down column i, in rows i - 1, i and i + 1
    n = len(a)
    zero = field.zero()
    return SquareMatrix.build(field, n, lambda r, i: (
        a[i] if r == i else c[i] if r == i - 1 else b[i] if r == i + 1 else zero))


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
    J = _tridiagonal(p.field, co.c, co.a, co.b)
    _column_failures(report, a.pair.H * P, P * J,
                     "recurrence fails for f_{} at theta_{}")
    return report


def verify_difference(a: Analysis) -> CheckReport:
    """theta*_i f_i(theta_j) = c*_j f_i(theta_{j-1}) + a*_j f_i(theta_j)
    + b*_j f_i(theta_{j+1}), boundary terms omitted: P H* = J* P with
    J* tridiagonal with (c*_j, a*_j, b*_j) along row j."""
    p, P, co = a.p, a.polys.P, a.recurrence
    report = CheckReport("difference")
    Jstar = _tridiagonal(p.field, co.cstar, co.astar, co.bstar).transpose()
    _column_failures(report, P * a.pair.Hstar, Jstar * P,
                     "difference equation fails for f_{} at theta_{}")
    return report


def _alt_checks(p: ParameterArray, co: tuple, report: CheckReport, tag: str) -> None:
    a, b, c = co
    th, ths, vp, ph = p.theta, p.theta_star, p.varphi, p.phi
    d = p.d

    if a[0] != th[0] + vp[0] * (ths[0] - ths[1]).inverse():
        report.add(f"{tag}a_0 closed form fails")
    if a[d] != th[d] + vp[d - 1] * (ths[d] - ths[d - 1]).inverse():
        report.add(f"{tag}a_d closed form fails")
    if b[0] != vp[0] * (ths[1] - ths[0]).inverse():
        report.add(f"{tag}b_0 closed form fails")
    if c[d] != ph[d - 1] * (ths[d - 1] - ths[d]).inverse():
        report.add(f"{tag}c_d closed form fails")

    for i in range(1, d):
        ai = (th[i] + vp[i - 1] * (ths[i] - ths[i - 1]).inverse()
              + vp[i] * (ths[i] - ths[i + 1]).inverse())
        if a[i] != ai:
            report.add(f"{tag}a_{i} closed form fails")
        common = (th[0] - th[1]) * (ths[0] - ths[i]) + vp[0]
        bi = ((th[0] - a[i]) * (ths[i] - ths[i - 1]) + common) \
            * (ths[i + 1] - ths[i - 1]).inverse()
        if b[i] != bi:
            report.add(f"{tag}b_{i} closed form fails")
        ci = ((th[0] - a[i]) * (ths[i] - ths[i + 1]) + common) \
            * (ths[i - 1] - ths[i + 1]).inverse()
        if c[i] != ci:
            report.add(f"{tag}c_{i} closed form fails")

    for i in range(d + 1):
        lhs = p.field.zero()
        if i > 0:
            lhs = lhs + c[i] * (ths[i - 1] - ths[i])
        if i < d:
            lhs = lhs - b[i] * (ths[i] - ths[i + 1])
        rhs = (th[1] - th[0]) * (ths[i] - ths[0]) + vp[0]
        if lhs != rhs:
            report.add(f"{tag}weighted b/c difference identity fails at {i}")


def verify_alt_formulas(a: Analysis) -> CheckReport:
    """Alternative closed forms for a_i, b_i, c_i, and the weighted difference
    identity they satisfy; checked on the array and on its dual.  Skipped at
    d = 0, where there are no interior coefficients."""
    p = a.p
    if p.d < 1:
        return CheckReport("alt-recurrence",
                           skipped="no interior coefficients at d = 0")
    report = CheckReport("alt-recurrence")
    co = a.recurrence
    _alt_checks(p, (co.a, co.b, co.c), report, "")
    star = d4_apply(p, ["star"])
    _alt_checks(star, (co.astar, co.bstar, co.cstar), report, "dual ")
    return report
