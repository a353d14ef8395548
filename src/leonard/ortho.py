"""Weights and orthogonality sums for the polynomial sequence of an array.

The weights and nu are read from the two layers of `Analysis`: the
one-sided products of (theta, theta*) from `pair`, and the prefix products
D_i = varphi_1 .. varphi_i and Ddown_i = phi_1 .. phi_i from `splits`.
The row sums are settled from the three-term and difference
comparisons, `three_term` and `difference`, where they passed: the row
Gram is then fixed by its first row, which k* being a left eigenvector of
J* fixes in turn, so a passing check forms no P.  Elsewhere, and to write
the lines where the rows fail, the Gram matrix is formed from P
(`Analysis.polys`).  The weights and nu
are held as payloads, like the layers they are read from; the names k,
kstar and nu of `OrthoData` wrap them in elements for the `weights` dump
and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from .fields import Field
from .polys import require_table
from .report import CheckReport
from .splitmat import SquareMatrix, _element_view

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class OrthoData:
    """`values` = (k, kstar, nu): the payloads of the weights k_i and k*_i
    and of nu."""

    field: Field
    values: tuple
    k, kstar, nu = _element_view(0), _element_view(1), _element_view(2, scalar=True)


def ortho_data(a: Analysis) -> OrthoData:
    """k_i = D_i above*_0 / (Ddown_i below*_i above*_i), with below* and
    above* the one-sided products of theta* (`Analysis.pair`) and D_i =
    varphi_1 .. varphi_i, Ddown_i = phi_1 .. phi_i (`Analysis.splits`);
    k*_i likewise from theta, with phi read from the top end, so that
    phi_d .. phi_{d-i+1} = Ddown_d / Ddown_{d-i}; and nu = above_0 above*_0
    / Ddown_d.  A zero phi_i or a repeated eigenvalue raises
    ZeroDivisionError.  The products run on payloads."""
    F = a.p.field
    mul, inv = F._mul, F._checked_inv

    def prod(*xs):
        return reduce(mul, xs)

    (below, above), (below_s, above_s) = a.pair.sides, a.pair.sides_star
    D, Ddown = a.splits.D, a.splits.Ddown
    d = len(D) - 1
    k = tuple([prod(D[i], above_s[0], inv(prod(Ddown[i], below_s[i], above_s[i])))
               for i in range(d + 1)])
    kstar = tuple([prod(D[i], Ddown[d - i], above[0], inv(prod(Ddown[d], below[i], above[i])))
                   for i in range(d + 1)])
    return OrthoData(F, (k, kstar, prod(above[0], above_s[0], inv(Ddown[d]))))


def verify_orthogonality(a: Analysis) -> CheckReport:
    """Row and column orthogonality of the evaluation table under the two
    weight families.

    With K = diag(k), K* = diag(k*), the rows say P^t K* P = nu K^-1.  When
    they hold and nu is nonzero, P^-1 = nu^-1 K P^t K*, so P K P^t K* = nu I,
    which is the column identity P K P^t = nu K*^-1.  The column pass is
    therefore computed only when the rows fail or nu is zero; it could add
    no line otherwise.

    The rows are read off the recurrences where the three-term and
    difference comparisons of `Analysis` passed and b_i != 0 for i < d.
    There H P = P J, and since H and K* are diagonal, the row Gram
    M = P^t K* P satisfies J^t M = P^t H K* P = M J.  Entry (i, l) of that
    identity reads

        b_i X[i+1][l] = c_l X[i][l-1] + (a_l - a_i) X[i][l]
                        + b_l X[i][l+1] - c_i X[i-1][l],

    so a solution X is fixed by its first row (Favard's argument).  With
    w_i = nu / k_i, diag(w) is a solution exactly when w_i c_{i+1} =
    w_{i+1} b_i for i < d.  The first row of M is k*^t P (f_0 = 1), and
    J* P = P H* gives k*^t J* P = k*^t P H*.  Where k* is a left
    eigenvector of J* for theta*_0, which with a*_j = theta*_0 - b*_j -
    c*_j is k*_j b*_j = k*_{j+1} c*_{j+1} for j < d, entry l of k*^t P
    times theta*_l - theta*_0 is zero, so by PA1 entry l is zero for
    l > 0, and entry 0 is the sum of the k*_r: the first row is (sum of
    k*, 0, .., 0).
    Conversely, where M = diag(w) it is (w_0, 0, .., 0), and P is
    invertible, so k* is such an eigenvector.  So M = diag(w) iff the two
    band conditions hold and the k*_r sum to w_0: O(d) products in place
    of the n^3 of the Gram matrix, and P is not formed.  Where the route
    does not apply, and to write the lines where it finds the rows
    failing, the Gram matrix is formed from P, as `_gram_failures`.  The
    check raises where forming P raises (`polys.require_table`),
    whichever route it takes."""
    require_table(a)
    k, kstar, nu = a.ortho.values
    report = CheckReport("orthogonality")
    # row (i, j): sum_r f_i(theta_r) f_j(theta_r) kstar_r = delta_ij nu / k_i
    if not _rows_hold(a):
        _gram_failures(report, "row", a.polys.P.transpose(), kstar, k, nu)
    if report.failures or nu == a.p.field.zero_value:
        # column (i, j): sum_r f_r(theta_i) f_r(theta_j) k_r = delta_ij nu / kstar_i
        _gram_failures(report, "column", a.polys.P, k, kstar, nu)
    return report


def _rows_hold(a: Analysis) -> bool:
    """True when the recurrence route of `verify_orthogonality` applies and
    finds P^t K* P = diag(nu / k_i); False when it does not apply or finds
    the rows failing.  A zero k_i raises ZeroDivisionError, as the Gram's
    test of its diagonal does."""
    F = a.p.field
    mul, add, inv = F._mul, F._add, F._checked_inv
    _, b, c, _, bstar, cstar = a.recurrence.values
    k, kstar, nu = a.ortho.values
    d = len(b) - 1
    if a.three_term.failures or F.zero_value in b[:d] or a.difference.failures:
        return False
    w = [mul(nu, inv(x)) for x in k]
    return (all(mul(w[i], c[i + 1]) == mul(w[i + 1], b[i]) for i in range(d))
            and all(mul(kstar[j], bstar[j]) == mul(kstar[j + 1], cstar[j + 1])
                    for j in range(d))
            and reduce(add, kstar) == w[0])


def _gram_failures(report: CheckReport, kind: str, X: SquareMatrix, weights,
                   diag, nu) -> None:
    """Add a line for each (i, j), in row-major order, where the weighted
    inner product of rows i and j of X is not delta_ij nu / diag_i, with
    weights, diag and nu given as payloads.

    The inner products are the entries of the Gram matrix X W X^t, with
    W = diag(weights): a column scaling and one matrix product."""
    F = X.field
    gram = X.scale_columns(weights) * X.transpose()
    want = [F._mul(nu, F._checked_inv(x)) for x in diag]
    for i, row in enumerate(gram.values):
        for j, x in enumerate(row):
            if x != (want[i] if i == j else F.zero_value):
                report.add(f"{kind} orthogonality fails at ({i}, {j})")


def verify_nu_sums(a: Analysis) -> CheckReport:
    """nu equals the sum of either weight family."""
    F = a.p.field
    k, kstar, nu = a.ortho.values
    report = CheckReport("weight-sums")
    for name, weights in (("k", k), ("k*", kstar)):
        if reduce(F._add, weights, F.zero_value) != nu:
            report.add(f"sum of {name} weights differs from nu")
    return report
