"""Weights and orthogonality sums for the polynomial sequence of an array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fields import FieldElement
from .parray import ParameterArray
from .report import CheckReport

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class OrthoData:
    k: tuple[FieldElement, ...]
    kstar: tuple[FieldElement, ...]
    nu: FieldElement


def ortho_data(p: ParameterArray) -> OrthoData:
    F, d = p.field, p.d
    th, ths, vp, ph = p.theta, p.theta_star, p.varphi, p.phi
    one = F.one()

    def weights(eigs, num_seq, den_seq):
        # weight_i = (num_seq cumulative / den_seq cumulative)
        #            * prod_j (eigs_0 - eigs_j) / prod_{j != i} (eigs_i - eigs_j)
        top = one
        for j in range(1, d + 1):
            top = top * (eigs[0] - eigs[j])
        out = []
        ratio = one
        for i in range(d + 1):
            if i > 0:
                ratio = ratio * num_seq[i - 1] * den_seq[i - 1].inverse()
            bottom = one
            for j in range(d + 1):
                if j != i:
                    bottom = bottom * (eigs[i] - eigs[j])
            out.append(ratio * top * bottom.inverse())
        return tuple(out)

    k = weights(ths, vp, ph)
    # The starred weights consume phi from the top end: phi_d, phi_{d-1}, ...
    kstar = weights(th, vp, tuple(reversed(ph)))

    nu = one
    for j in range(1, d + 1):
        nu = nu * (th[0] - th[j]) * (ths[0] - ths[j])
    for x in ph:
        nu = nu * x.inverse()
    return OrthoData(k=k, kstar=kstar, nu=nu)


def verify_orthogonality(a: Analysis) -> CheckReport:
    """Row and column orthogonality of the evaluation table under the two
    weight families."""
    table, data = a.polys, a.ortho
    F, d = a.p.field, a.p.d
    zero = F.zero()
    report = CheckReport("orthogonality")

    vals = table.P.rows  # vals[j][i] = f_i(theta_j)
    for i in range(d + 1):
        for j in range(d + 1):
            acc = zero
            for r in range(d + 1):
                acc = acc + vals[r][i] * vals[r][j] * data.kstar[r]
            want = data.nu * data.k[i].inverse() if i == j else zero
            if acc != want:
                report.add(f"row orthogonality fails at ({i}, {j})")
    for i in range(d + 1):
        for j in range(d + 1):
            acc = zero
            for r in range(d + 1):
                acc = acc + vals[i][r] * vals[j][r] * data.k[r]
            want = data.nu * data.kstar[i].inverse() if i == j else zero
            if acc != want:
                report.add(f"column orthogonality fails at ({i}, {j})")
    return report


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
