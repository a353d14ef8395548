"""Weights and orthogonality sums for the polynomial sequence of an array.

The weights and nu are read from the two layers of `Analysis`: the
one-sided products of (theta, theta*) from `pair`, and the prefix products
D_i = varphi_1 .. varphi_i and Ddown_i = phi_1 .. phi_i from `splits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from .fields import FieldElement
from .report import CheckReport
from .splitmat import SquareMatrix

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class OrthoData:
    k: tuple[FieldElement, ...]
    kstar: tuple[FieldElement, ...]
    nu: FieldElement


def ortho_data(a: Analysis) -> OrthoData:
    """k_i = D_i above*_0 / (Ddown_i below*_i above*_i), with below* and
    above* the one-sided products of theta* (`Analysis.pair`) and D_i =
    varphi_1 .. varphi_i, Ddown_i = phi_1 .. phi_i (`Analysis.splits`);
    k*_i likewise from theta, with phi read from the top end, so that
    phi_d .. phi_{d-i+1} = Ddown_d / Ddown_{d-i}; and nu = above_0 above*_0
    / Ddown_d.  A zero phi_i or a repeated eigenvalue raises
    ZeroDivisionError.  The products run on payloads."""
    F = a.p.field
    mul, inv, wrap = F._mul, F._checked_inv, F._elements

    def prod(*xs):
        return reduce(mul, xs)

    (below, above), (below_s, above_s), (D, Ddown) = (
        ([x.value for x in seq] for seq in group)
        for group in (a.pair.sides, a.pair.sides_star, (a.splits.D, a.splits.Ddown)))
    d = len(D) - 1
    k = tuple(wrap[prod(D[i], above_s[0], inv(prod(Ddown[i], below_s[i], above_s[i])))]
              for i in range(d + 1))
    kstar = tuple(wrap[prod(D[i], Ddown[d - i], above[0],
                            inv(prod(Ddown[d], below[i], above[i])))]
                  for i in range(d + 1))
    nu = wrap[prod(above[0], above_s[0], inv(Ddown[d]))]
    return OrthoData(k=k, kstar=kstar, nu=nu)


def verify_orthogonality(a: Analysis) -> CheckReport:
    """Row and column orthogonality of the evaluation table under the two
    weight families.

    With K = diag(k), K* = diag(k*), the rows say P^t K* P = nu K^-1.  When
    they hold and nu is nonzero, P^-1 = nu^-1 K P^t K*, so P K P^t K* = nu I,
    which is the column identity P K P^t = nu K*^-1.  The column pass is
    therefore computed only when the rows fail or nu is zero; it could add
    no line otherwise."""
    table, data = a.polys, a.ortho
    P = table.P  # P[j][i] = f_i(theta_j)
    report = CheckReport("orthogonality")
    # row (i, j): sum_r f_i(theta_r) f_j(theta_r) kstar_r = delta_ij nu / k_i
    _gram_failures(report, "row", P.transpose(), data.kstar, data.k, data.nu)
    if report.failures or not data.nu:
        # column (i, j): sum_r f_r(theta_i) f_r(theta_j) k_r = delta_ij nu / kstar_i
        _gram_failures(report, "column", P, data.k, data.kstar, data.nu)
    return report


def _gram_failures(report: CheckReport, kind: str, X: SquareMatrix, weights,
                   diag, nu) -> None:
    """Add a line for each (i, j), in row-major order, where the weighted
    inner product of rows i and j of X is not delta_ij nu / diag_i.

    The inner products are the entries of the Gram matrix X W X^t, with
    W = diag(weights): a column scaling and one matrix product on
    payloads."""
    F = X.field
    gram = X.scale_columns(weights) * X.transpose()
    want = [F._mul(nu.value, F._checked_inv(x.value)) for x in diag]
    for i, row in enumerate(gram.values):
        for j, x in enumerate(row):
            if x != (want[i] if i == j else F.zero_value):
                report.add(f"{kind} orthogonality fails at ({i}, {j})")


def verify_nu_sums(a: Analysis) -> CheckReport:
    """nu equals the sum of either weight family."""
    data = a.ortho
    report = CheckReport("weight-sums")
    for name, weights in (("k", data.k), ("k*", data.kstar)):
        if sum(weights, a.p.field.zero()) != data.nu:
            report.add(f"sum of {name} weights differs from nu")
    return report
