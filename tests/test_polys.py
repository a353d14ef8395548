"""Polynomial families, evaluation matrices, proportionality, duality."""

import dataclasses

import pytest

from leonard import (
    Analysis,
    CheckReport,
    LeonardError,
    build,
    corresponding_polys,
    d4_apply,
    duality_check,
    endpoint_evaluations,
    endpoint_values,
    make_array,
    ortho_data,
    proportionality_alphas,
    verify_proportionality,
)
from conftest import Poly, Q, elements, horner_table, pa1_pa2_perturbations


def test_poly_arithmetic():
    x = Poly.x_minus(Q, Q.zero())
    one = Poly.one(Q)
    p = x * x - one
    assert p.degree() == 2
    assert p(Q.from_int(3)) == Q.from_int(8)
    assert (p + one) == x * x
    assert p.scale(Q.from_int(2))(Q.from_int(2)) == Q.from_int(6)
    assert Poly.make(Q, [Q.zero()]).is_zero()
    assert Poly.make(Q, [Q.zero()]).degree() == -1


def test_poly_str_and_trim():
    p = Poly.make(Q, [Q.from_int(1), Q.from_int(0), Q.from_int(0)])
    assert p.degree() == 0
    assert p == Poly.one(Q)


def test_fix_d1_polynomials(fix_d1):
    h = horner_table(fix_d1)
    fmt = lambda poly: [Q.format(c) for c in poly.coeffs]
    assert [fmt(f) for f in h.f] == [["1"], ["1", "1"]]
    assert [fmt(f) for f in h.fdown] == [["1"], ["1/2", "1/2"]]
    assert [fmt(f) for f in h.fstar] == [["1"], ["1", "1"]]
    t = corresponding_polys(Analysis(fix_d1))
    rows = [[Q.format(x) for x in row] for row in t.P.rows]
    assert rows == [["1", "1"], ["1", "2"]]
    down = [[Q.format(x) for x in row] for row in t.Pdown.rows]
    assert down == [["1", "1/2"], ["1", "1"]]
    star = [[Q.format(x) for x in row] for row in t.P.transpose().rows]
    assert star == [["1", "1"], ["1", "2"]]


def test_kraw2_evaluation_matrix(kraw2):
    t = corresponding_polys(Analysis(kraw2))
    rows = [[Q.format(x) for x in row] for row in t.P.rows]
    assert rows == [["1", "1", "1"],
                    ["1", "3/4", "1/2"],
                    ["1", "1/2", "1/4"]]


def test_degrees_and_leading_structure(qrac3):
    t = horner_table(qrac3)
    for i in range(qrac3.d + 1):
        assert t.f[i].degree() == i
        assert t.fdown[i].degree() == i
        assert t.fstar[i].degree() == i
        assert t.f[i](qrac3.theta[0]) == Q.one()


def test_evaluation_matrix_is_first_transition_product(qrac3, orphan3):
    for p in (qrac3, orphan3):
        t = corresponding_polys(Analysis(p))
        m = build(Analysis(p))
        lhs = t.P
        rhs = m.T * m.D.inverse() * m.Tstar.transpose()
        assert lhs == rhs
        assert t.Pdown == m.Z * m.Tdown * m.Ddown.inverse() * m.Tstar.transpose()


def test_proportionality_alpha_values(fix_d1, kraw2):
    alphas = lambda p: [Q.format(a) for a in elements(Q, proportionality_alphas(Analysis(p)))]
    assert alphas(fix_d1) == ["1", "2"]
    assert alphas(kraw2) == ["1", "1/2", "1/4"]
    for p in (fix_d1, kraw2):
        assert verify_proportionality(Analysis(p)).ok()


def test_proportionality_alpha_is_phi_ratio(qrac3):
    alphas = elements(Q, proportionality_alphas(Analysis(qrac3)))
    num = den = Q.one()
    assert alphas[0] == Q.one()
    for i in range(1, qrac3.d + 1):
        num = num * qrac3.phi[i - 1]
        den = den * qrac3.varphi[i - 1]
        assert alphas[i] == num / den


def test_proportionality_rejects_mangled_arrays(kraw3):
    broken = make_array(kraw3.field, kraw3.theta, kraw3.theta_star,
                        kraw3.varphi, (Q.from_int(-4),) + kraw3.phi[1:])
    report = verify_proportionality(Analysis(broken))
    assert report.failures == ["f_1 is not alpha_1 times its reversed companion"]


def test_endpoint_values_match_alpha(fix_d1, qrac3):
    for p in (fix_d1, qrac3):
        assert endpoint_values(Analysis(p)).ok()
        vals = elements(p.field, endpoint_evaluations(Analysis(p)))
        alphas = elements(p.field, proportionality_alphas(Analysis(p)))
        t = horner_table(p)
        for i, v in enumerate(vals):
            assert v == alphas[i]
            assert t.f[i](p.theta[p.d]) == v


def test_endpoint_weighted_by_k(qrac3):
    vals = elements(Q, endpoint_evaluations(Analysis(qrac3)))
    k = ortho_data(Analysis(qrac3)).k
    d = qrac3.d
    ts = qrac3.theta_star
    for i in range(d + 1):
        num = den = Q.one()
        for j in range(1, d + 1):
            num = num * (ts[0] - ts[j])
        for j in range(d + 1):
            if j != i:
                den = den * (ts[i] - ts[j])
        assert k[i] * vals[i] == num / den


def test_duality_on_fixtures(fix_d1, kraw2, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw2, kraw3, qrac3, orphan3):
        rep = duality_check(Analysis(p))
        assert rep.ok(), rep.failures


FIXTURES = ["fix_d1", "kraw2", "kraw3", "qrac3", "orphan3"]


def oracle_proportionality(a):
    """verify_proportionality as it was, comparing the coefficient lists of
    f_i and alpha_i times its reversed companion."""
    h = horner_table(a.p)
    report = CheckReport("proportionality")
    for i, alpha in enumerate(elements(a.p.field, proportionality_alphas(a))):
        if h.f[i] != h.fdown[i].scale(alpha):
            report.add(f"f_{i} is not alpha_{i} times its reversed companion")
            break
    return report


def oracle_duality_check(a):
    """duality_check as it was, evaluating f_i(theta_j) and f*_j(theta*_i)
    by Horner."""
    p, h = a.p, horner_table(a.p)
    report = CheckReport("duality")
    for i in range(p.d + 1):
        for j in range(p.d + 1):
            if h.f[i](p.theta[j]) != h.fstar[j](p.theta_star[i]):
                report.add(f"f_{i}(theta_{j}) != f*_{j}(theta*_{i})")
    return report


def outcome(check, p):
    """The check's failures, or the exception type and message."""
    try:
        return check(Analysis(p)).failures
    except (LeonardError, ZeroDivisionError) as e:
        return type(e), str(e)


def test_duality_reads_p_like_the_horner_check(fix_d1, kraw2, kraw3, qrac3,
                                               orphan3):
    """On the fixtures and on every copy with one entry bumped by 1, which
    validate would reject before verify reaches the check: P holds each
    f_i(theta_j), and both checks give the same answer."""
    compared = 0
    for p in (fix_d1, kraw2, kraw3, qrac3, orphan3):
        copies = [p]
        for name in ("theta", "theta_star", "varphi", "phi"):
            seq = getattr(p, name)
            for k in range(len(seq)):
                bumped = seq[:k] + (seq[k] + p.field.one(),) + seq[k + 1:]
                copies.append(dataclasses.replace(p, **{name: bumped}))
        for c in copies:
            want = outcome(oracle_duality_check, c)
            assert outcome(duality_check, c) == want, c
            if want == []:
                t, h = corresponding_polys(Analysis(c)), horner_table(c)
                assert all(t.P.rows[j][i] == h.f[i](c.theta[j])
                           for i in range(c.d + 1) for j in range(c.d + 1))
            compared += 1
    assert compared == 5 + 58


@pytest.mark.parametrize("name", FIXTURES)
def test_tables_match_horner(name, request):
    """P, Pdown and P^t hold the Horner values of f, fdown and f*, entry
    by entry, on the fixture and on every one-entry +-1 perturbation that
    keeps PA1 and PA2."""
    p = request.getfixturevalue(name)
    copies = [p, *pa1_pa2_perturbations(p)]
    for c in copies:
        t, h = corresponding_polys(Analysis(c)), horner_table(c)
        n = c.d + 1
        assert t.P.rows == tuple(tuple(h.f[j](c.theta[i]) for j in range(n))
                                 for i in range(n)), c
        assert t.Pdown.rows == tuple(tuple(h.fdown[j](c.theta[i]) for j in range(n))
                                     for i in range(n)), c
        assert t.P.transpose().rows == tuple(
            tuple(h.fstar[j](c.theta_star[i]) for j in range(n)) for i in range(n)), c
    assert len(copies) > 1


@pytest.mark.parametrize("name", FIXTURES)
def test_checks_match_coefficient_oracles(name, request):
    """verify_proportionality and duality_check, which read the evaluation
    matrices, agree with the coefficient-list and Horner checks they
    replaced, on the fixture and on every one-entry +-1 perturbation that
    keeps PA1 and PA2.  validate would reject most of the perturbations
    before verify reaches either check, so both outcomes occur."""
    p = request.getfixturevalue(name)
    failing = 0
    for c in (p, *pa1_pa2_perturbations(p)):
        got = outcome(verify_proportionality, c)
        assert got == outcome(oracle_proportionality, c), c
        assert outcome(duality_check, c) == outcome(oracle_duality_check, c), c
        failing += bool(got)
    assert outcome(verify_proportionality, p) == []
    assert failing > 0


def test_duality_is_star_symmetry(qrac3):
    # fstar here equals the plain family of the starred array
    star = d4_apply(qrac3, ["star"])
    assert corresponding_polys(Analysis(qrac3)).P.transpose() == corresponding_polys(Analysis(star)).P
    t = horner_table(qrac3)
    s = horner_table(star)
    for i in range(qrac3.d + 1):
        for j in range(qrac3.d + 1):
            x, y = qrac3.theta_star[j], star.theta[j]
            assert t.fstar[i](x) == s.f[i](y)
