"""Weights, the normalization scalar, and both orthogonality sums."""

from dataclasses import replace

import pytest

from leonard import (
    Analysis,
    CheckReport,
    make_array,
    ortho_data,
    verify_nu_sums,
    verify_orthogonality,
)
from leonard.ortho import _gram_failures
from conftest import Q, horner_table


def test_fix_d1_weights(fix_d1):
    data = ortho_data(Analysis(fix_d1))
    assert [Q.format(x) for x in data.k] == ["1", "-1/2"]
    assert [Q.format(x) for x in data.kstar] == ["1", "-1/2"]
    assert Q.format(data.nu) == "1/2"


def test_kraw2_weights(kraw2):
    data = ortho_data(Analysis(kraw2))
    assert [Q.format(x) for x in data.k] == ["1", "-4", "4"]
    assert [Q.format(x) for x in data.kstar] == ["1", "-4", "4"]
    assert Q.format(data.nu) == "1"


def test_k0_is_always_one(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        data = ortho_data(Analysis(p))
        assert data.k[0] == p.field.one()
        assert data.kstar[0] == p.field.one()


def test_weight_sums_equal_nu(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        data = ortho_data(Analysis(p))
        total = p.field.zero()
        for x in data.k:
            total = total + x
        assert total == data.nu
        total = p.field.zero()
        for x in data.kstar:
            total = total + x
        assert total == data.nu
        assert verify_nu_sums(Analysis(p)).ok()


def test_weight_sum_failures_name_each_family_in_order(kraw3):
    """A bumped k_0, k*_0 or both gives exactly the lines for the sums it
    breaks, k before k*."""
    data = ortho_data(Analysis(kraw3))
    one = kraw3.field.one()
    bump = lambda w: (w[0] + one,) + w[1:]
    k_line, kstar_line = "sum of k weights differs from nu", "sum of k* weights differs from nu"
    for changed, lines in ((replace(data, k=bump(data.k)), [k_line]),
                           (replace(data, kstar=bump(data.kstar)), [kstar_line]),
                           (replace(data, k=bump(data.k), kstar=bump(data.kstar)),
                            [k_line, kstar_line])):
        a = Analysis(kraw3)
        a.ortho = changed
        assert verify_nu_sums(a).failures == lines


def test_orthogonality_rows_and_columns(fix_d1, kraw2, qrac3, orphan3):
    for p in (fix_d1, kraw2, qrac3, orphan3):
        rep = verify_orthogonality(Analysis(p))
        assert rep.ok(), rep.failures


def test_orthogonality_sums_explicitly(kraw2):
    # sum_r f_i(theta_r) f_j(theta_r) kstar_r = delta_ij nu / k_i
    t = horner_table(kraw2)
    data = ortho_data(Analysis(kraw2))
    d = kraw2.d
    for i in range(d + 1):
        for j in range(d + 1):
            total = Q.zero()
            for r in range(d + 1):
                total = total + (t.f[i](kraw2.theta[r])
                                 * t.f[j](kraw2.theta[r]) * data.kstar[r])
            expect = data.nu / data.k[i] if i == j else Q.zero()
            assert total == expect


def test_orthogonality_detects_broken_phi(kraw3):
    broken = make_array(kraw3.field, kraw3.theta, kraw3.theta_star,
                        kraw3.varphi, (Q.from_int(-4),) + kraw3.phi[1:])
    assert not verify_orthogonality(Analysis(broken)).ok()
    assert not verify_nu_sums(Analysis(broken)).ok()


def orthogonality_oracle(a):
    """verify_orthogonality as it was before it used the symmetry of the
    sums and skipped the column pass after a clean row pass: both passes
    always run, and both (i, j) and (j, i) are summed in full, each in
    row-major order."""
    table, data = a.polys, a.ortho
    F, d = a.p.field, a.p.d
    zero = F.zero()
    report = CheckReport("orthogonality")
    vals = table.P.rows
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


def perturbed(p):
    """p with one entry of theta, theta*, varphi or phi raised by one, for
    every entry in turn."""
    seqs = (p.theta, p.theta_star, p.varphi, p.phi)
    for s, seq in enumerate(seqs):
        for i in range(len(seq)):
            changed = list(seqs)
            changed[s] = seq[:i] + (seq[i] + 1,) + seq[i + 1:]
            yield make_array(p.field, *changed)


def outcome(check, p):
    try:
        return check(Analysis(p)).failures
    except ZeroDivisionError as e:
        return type(e)


@pytest.mark.parametrize("name", ["fix_d1", "kraw2", "kraw3", "qrac3", "orphan3"])
def test_orthogonality_matches_oracle(name, request):
    p = request.getfixturevalue(name)
    assert verify_orthogonality(Analysis(p)) == orthogonality_oracle(Analysis(p))
    failing = 0
    for q in perturbed(p):
        got = outcome(verify_orthogonality, q)
        assert got == outcome(orthogonality_oracle, q)
        failing += bool(got)
    assert failing > 0


def gram_failures_oracle(report, kind, vecs, weights, diag, nu):
    """_gram_failures as it was before it took the Gram matrix by matrix
    products: element by element, each inner product summed for i <= j
    only, each vecs[i] weighted once."""
    n = len(vecs)
    zero = nu.field.zero()
    weighted = [[x * w for x, w in zip(v, weights)] for v in vecs]
    bad = [[False] * n for _ in range(n)]
    for i in range(n):
        wi = weighted[i]
        for j in range(i, n):
            acc = zero
            for x, y in zip(wi, vecs[j]):
                acc = acc + x * y
            want = nu * diag[i].inverse() if i == j else zero
            bad[i][j] = bad[j][i] = acc != want
    for i in range(n):
        for j in range(n):
            if bad[i][j]:
                report.add(f"{kind} orthogonality fails at ({i}, {j})")


def gram_outcomes(p):
    """Both Gram passes of p, by the kernel and by the oracle; None when the
    table or the weights cannot be built."""
    a = Analysis(p)
    try:
        P, data = a.polys.P, a.ortho
    except ZeroDivisionError:
        return None
    passes = (("row", P.transpose(), data.kstar, data.k),
              ("column", P, data.k, data.kstar))
    out = []
    for kind, X, weights, diag in passes:
        for check, vecs in ((_gram_failures, X), (gram_failures_oracle, X.rows)):
            report = CheckReport("orthogonality")
            try:
                check(report, kind, vecs, weights, diag, data.nu)
                out.append(report.failures)
            except ZeroDivisionError as e:
                out.append(type(e))
    return out


@pytest.mark.parametrize("name", ["fix_d1", "kraw2", "kraw3", "qrac3", "orphan3"])
def test_gram_kernel_matches_elementwise_oracle(name, request):
    p = request.getfixturevalue(name)
    assert gram_outcomes(p) == [[]] * 4
    failing = 0
    for q in perturbed(p):
        outcomes = gram_outcomes(q)
        if outcomes is not None:
            row, row_oracle, column, column_oracle = outcomes
            assert row == row_oracle and column == column_oracle
            failing += bool(row) + bool(column)
    assert failing > 0
