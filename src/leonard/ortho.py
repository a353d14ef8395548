"""Weights and orthogonality sums for the polynomial sequence of an array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fields import FieldElement
from .report import CheckReport
from .splitmat import SquareMatrix, prefix_products

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class OrthoData:
    k: tuple[FieldElement, ...]
    kstar: tuple[FieldElement, ...]
    nu: FieldElement


def ortho_data(a: Analysis) -> OrthoData:
    """k_i = (varphi_1 .. varphi_i) / (phi_1 .. phi_i) above*_0 / (below*_i
    above*_i), with below* and above* the one-sided products of theta*
    (`Analysis.pair`); k*_i likewise from theta, with phi read from the top
    end; and nu = above_0 above*_0 / (phi_1 .. phi_d)."""
    p, pair = a.p, a.pair
    F, vp, ph = p.field, p.varphi, p.phi
    (below, above), (below_s, above_s) = pair.sides, pair.sides_star

    def weights(below, above, num_seq, den_seq):
        ratio, out = F.one(), []
        for i, (x, y) in enumerate(zip(below, above)):
            if i > 0:
                ratio = ratio * num_seq[i - 1] * den_seq[i - 1].inverse()
            out.append(ratio * above[0] * (x * y).inverse())
        return tuple(out)

    k = weights(below_s, above_s, vp, ph)
    # The starred weights consume phi from the top end: phi_d, phi_{d-1}, ...
    kstar = weights(below, above, vp, tuple(reversed(ph)))
    nu = above[0] * above_s[0] * prefix_products(F, ph)[-1].inverse()
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
    W = diag(weights), taken by two matrix products on payloads."""
    F = X.field
    gram = X * SquareMatrix.diagonal(F, weights) * X.transpose()
    want = [(nu * x.inverse()).value for x in diag]
    for i, row in enumerate(gram.values):
        for j, x in enumerate(row):
            if x != (want[i] if i == j else F.zero_value):
                report.add(f"{kind} orthogonality fails at ({i}, {j})")


def verify_nu_sums(a: Analysis) -> CheckReport:
    """nu equals the sum of either weight family."""
    data = a.ortho
    zero = a.p.field.zero()
    report = CheckReport("weight-sums")
    total = zero
    for x in data.k:
        total = total + x
    if total != data.nu:
        report.add("sum of k weights differs from nu")
    total = zero
    for x in data.kstar:
        total = total + x
    if total != data.nu:
        report.add("sum of k* weights differs from nu")
    return report
