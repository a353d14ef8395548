"""Polynomials attached to a parameter array and their evaluation matrices.

The central objects are the sequence f_0 .. f_d built from theta, theta*,
and the varphi column, the companion sequence built after reversing theta
and switching to the phi column, and the starred sequence obtained from the
dual array.  deg f_i = i and the three sequences are tied together by exact
proportionality and duality identities checked here.
"""

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
class Poly:
    """Dense univariate polynomial, coefficients low order first, trimmed."""

    field: Field
    coeffs: tuple[FieldElement, ...]

    @staticmethod
    def make(field: Field, coeffs: Sequence[FieldElement]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == field.zero():
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def constant(field: Field, c: FieldElement) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly.constant(field, field.one())

    @staticmethod
    def x_minus(field: Field, c: FieldElement) -> "Poly":
        return Poly.make(field, [-c, field.one()])

    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly.make(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-self.field.one())

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.field, ())
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.field, out)

    def scale(self, c: FieldElement) -> "Poly":
        return Poly.make(self.field, [a * c for a in self.coeffs])

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class PolyTable:
    f: tuple[Poly, ...]
    fdown: tuple[Poly, ...]
    fstar: tuple[Poly, ...]
    P: SquareMatrix
    Pdown: SquareMatrix


def _poly_family(field: Field,
                 theta: Sequence[FieldElement],
                 theta_star: Sequence[FieldElement],
                 varphi: Sequence[FieldElement]) -> list[Poly]:
    # f_i = sum over n of (x - theta_0)..(x - theta_{n-1})
    #       * (theta*_i - theta*_0)..(theta*_i - theta*_{n-1}) / (varphi_1..varphi_n)
    d = len(theta) - 1
    prefix = [Poly.one(field)]
    for n in range(1, d + 1):
        prefix.append(prefix[-1] * Poly.x_minus(field, theta[n - 1]))
    out = []
    for i in range(d + 1):
        total = Poly.one(field)
        coeff = field.one()
        for n in range(1, i + 1):
            coeff = coeff * (theta_star[i] - theta_star[n - 1]) * varphi[n - 1].inverse()
            total = total + prefix[n].scale(coeff)
        out.append(total)
    return out


def corresponding_polys(p: ParameterArray) -> PolyTable:
    F, d = p.field, p.d
    f = _poly_family(F, p.theta, p.theta_star, p.varphi)
    rev = tuple(p.theta[d - i] for i in range(d + 1))
    fdown = _poly_family(F, rev, p.theta_star, p.phi)
    star = d4_apply(p, ["star"])
    fstar = _poly_family(F, star.theta, star.theta_star, star.varphi)

    P = SquareMatrix.build(F, d + 1, lambda i, j: f[j](p.theta[i]))
    Pdown = SquareMatrix.build(F, d + 1, lambda i, j: fdown[j](p.theta[i]))
    return PolyTable(f=tuple(f), fdown=tuple(fdown), fstar=tuple(fstar),
                     P=P, Pdown=Pdown)


def proportionality_alphas(p: ParameterArray) -> list[FieldElement]:
    """alpha_0 .. alpha_d, the cumulative ratios of phi over varphi."""
    alpha = [p.field.one()]
    for i in range(1, p.d + 1):
        alpha.append(alpha[-1] * p.phi[i - 1] * p.varphi[i - 1].inverse())
    return alpha


def verify_proportionality(a: Analysis) -> CheckReport:
    """Each f_i is alpha_i times its reversed companion; reports the first i
    where it is not."""
    table = a.polys
    report = CheckReport("proportionality")
    for i, alpha in enumerate(proportionality_alphas(a.p)):
        if table.f[i] != table.fdown[i].scale(alpha):
            report.add(f"f_{i} is not alpha_{i} times its reversed companion")
            break
    return report


def endpoint_evaluations(a: Analysis) -> list[FieldElement]:
    """The values f_i(theta_d), the last row of P."""
    return list(a.polys.P.rows[a.p.d])


def endpoint_values(a: Analysis) -> CheckReport:
    """f_i(theta_d) against the phi/varphi ratio form and the weighted form
    involving the dual eigenvalues; reports the first failure."""
    p = a.p
    d = p.d
    report = CheckReport("endpoint-values")
    vals = endpoint_evaluations(a)
    for i, alpha in enumerate(proportionality_alphas(p)):
        if vals[i] != alpha:
            report.add(f"f_{i}(theta_d) differs from the phi/varphi cumulative ratio")
            return report

    data = a.ortho
    num = p.field.one()
    for j in range(1, d + 1):
        num = num * (p.theta_star[0] - p.theta_star[j])
    for i in range(d + 1):
        den = p.field.one()
        for j in range(d + 1):
            if j != i:
                den = den * (p.theta_star[i] - p.theta_star[j])
        if data.k[i] * vals[i] != num * den.inverse():
            report.add(f"k_{i} f_{i}(theta_d) differs from the dual eigenvalue product")
            break
    return report


def duality_check(a: Analysis) -> CheckReport:
    """f_i(theta_j), read from P, must equal the starred value
    f*_j(theta*_i)."""
    p, table = a.p, a.polys
    report = CheckReport("duality")
    for i in range(p.d + 1):
        for j in range(p.d + 1):
            if table.P.rows[j][i] != table.fstar[j](p.theta_star[i]):
                report.add(f"f_{i}(theta_{j}) != f*_{j}(theta*_{i})")
    return report
