"""Three-term recurrence and difference-equation data of a parameter array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .fields import FieldElement
from .parray import ParameterArray, d4_apply
from .report import CheckReport

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
              dual: Sequence[FieldElement],
              varphi: Sequence[FieldElement],
              phi: Sequence[FieldElement]) -> tuple:
    # dual carries the eigenvalues appearing in the products; varphi feeds b,
    # phi feeds c, and a balances the row sum against theta_0.
    F = theta0.field
    d = len(dual) - 1
    zero, one = F.zero(), F.one()

    b = []
    for i in range(d):
        num = varphi[i]
        for h in range(i):
            num = num * (dual[i] - dual[h])
        den = one
        for h in range(i + 1):
            den = den * (dual[i + 1] - dual[h])
        b.append(num * den.inverse())
    b.append(zero)

    c = [zero]
    for i in range(1, d + 1):
        num = phi[i - 1]
        for h in range(i + 1, d + 1):
            num = num * (dual[i] - dual[h])
        den = one
        for h in range(i, d + 1):
            den = den * (dual[i - 1] - dual[h])
        c.append(num * den.inverse())

    a = [theta0 - c[i] - b[i] for i in range(d + 1)]
    return tuple(a), tuple(b), tuple(c)


def recurrence_coeffs(p: ParameterArray) -> RecurrenceCoeffs:
    a, b, c = _one_side(p.theta[0], p.theta_star, p.varphi, p.phi)
    astar, bstar, cstar = _one_side(p.theta_star[0], p.theta,
                                    p.varphi, tuple(reversed(p.phi)))
    return RecurrenceCoeffs(a=a, b=b, c=c, astar=astar, bstar=bstar, cstar=cstar)


def verify_three_term(a: Analysis) -> CheckReport:
    """theta_j f_i = c_i f_{i-1} + a_i f_i + b_i f_{i+1} evaluated on the
    eigenvalues, boundary terms omitted."""
    p, table, co = a.p, a.polys, a.recurrence
    d = p.d
    report = CheckReport("three-term")
    vals = table.P.rows  # vals[j][i] = f_i(theta_j)
    for i in range(d + 1):
        for j in range(d + 1):
            lhs = p.theta[j] * vals[j][i]
            rhs = co.a[i] * vals[j][i]
            if i > 0:
                rhs = rhs + co.c[i] * vals[j][i - 1]
            if i < d:
                rhs = rhs + co.b[i] * vals[j][i + 1]
            if lhs != rhs:
                report.add(f"recurrence fails for f_{i} at theta_{j}")
    return report


def verify_difference(a: Analysis) -> CheckReport:
    """theta*_i f_i(theta_j) = c*_j f_i(theta_{j-1}) + a*_j f_i(theta_j)
    + b*_j f_i(theta_{j+1}), boundary terms omitted."""
    p, table, co = a.p, a.polys, a.recurrence
    d = p.d
    report = CheckReport("difference")
    vals = table.P.rows
    for i in range(d + 1):
        for j in range(d + 1):
            lhs = p.theta_star[i] * vals[j][i]
            rhs = co.astar[j] * vals[j][i]
            if j > 0:
                rhs = rhs + co.cstar[j] * vals[j - 1][i]
            if j < d:
                rhs = rhs + co.bstar[j] * vals[j + 1][i]
            if lhs != rhs:
                report.add(f"difference equation fails for f_{i} at theta_{j}")
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
