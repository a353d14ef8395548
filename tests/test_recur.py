"""Three-term recurrence, difference equation, alternate coefficient forms."""

import random

import pytest

from leonard import (
    Analysis,
    d4_apply,
    generate,
    make_array,
    recurrence_coeffs,
    sample_params,
    validate,
    verify_alt_formulas,
    verify_difference,
    verify_three_term,
)
from conftest import Q, count_multiplications, horner_table, qarr


def test_fix_d1_coefficients(fix_d1):
    co = recurrence_coeffs(Analysis(fix_d1))
    fmt = lambda xs: [Q.format(x) for x in xs]
    assert fmt(co.a) == ["-1", "2"]
    assert fmt(co.b) == ["1", "0"]
    assert fmt(co.c) == ["0", "-2"]
    assert fmt(co.astar) == ["-1", "2"]
    assert fmt(co.bstar) == ["1", "0"]
    assert fmt(co.cstar) == ["0", "-2"]


def test_kraw2_coefficients(kraw2):
    co = recurrence_coeffs(Analysis(kraw2))
    fmt = lambda xs: [Q.format(x) for x in xs]
    assert fmt(co.a) == ["4", "1", "-2"]
    assert fmt(co.b) == ["-4", "-2", "0"]
    assert fmt(co.c) == ["0", "1", "2"]


def test_boundary_entries(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        co = recurrence_coeffs(Analysis(p))
        zero = p.field.zero()
        assert co.c[0] == zero and co.cstar[0] == zero
        assert co.b[p.d] == zero and co.bstar[p.d] == zero
        for i in range(p.d):
            assert co.b[i] != zero and co.c[i + 1] != zero


def test_rows_sum_to_first_eigenvalue(kraw3, qrac3, orphan3):
    for p in (kraw3, qrac3, orphan3):
        co = recurrence_coeffs(Analysis(p))
        for i in range(p.d + 1):
            assert co.a[i] + co.b[i] + co.c[i] == p.theta[0]
            assert co.astar[i] + co.bstar[i] + co.cstar[i] == p.theta_star[0]


def test_three_term_recurrence_explicit(kraw2):
    t = horner_table(kraw2)
    co = recurrence_coeffs(Analysis(kraw2))
    d = kraw2.d
    for j in range(d + 1):
        x = kraw2.theta[j]
        for i in range(d + 1):
            rhs = co.a[i] * t.f[i](x)
            if i > 0:
                rhs = rhs + co.c[i] * t.f[i - 1](x)
            if i < d:
                rhs = rhs + co.b[i] * t.f[i + 1](x)
            assert x * t.f[i](x) == rhs


def test_three_term_and_difference_reports(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        assert verify_three_term(Analysis(p)).ok()
        assert verify_difference(Analysis(p)).ok()


def test_difference_equation_explicit(qrac3):
    # theta*_i f_i(theta_j) = c*_j f_i(theta_{j-1}) + a*_j f_i(theta_j)
    #                          + b*_j f_i(theta_{j+1})
    t = horner_table(qrac3)
    co = recurrence_coeffs(Analysis(qrac3))
    d = qrac3.d
    for i in range(d + 1):
        for j in range(d + 1):
            rhs = co.astar[j] * t.f[i](qrac3.theta[j])
            if j > 0:
                rhs = rhs + co.cstar[j] * t.f[i](qrac3.theta[j - 1])
            if j < d:
                rhs = rhs + co.bstar[j] * t.f[i](qrac3.theta[j + 1])
            assert qrac3.theta_star[i] * t.f[i](qrac3.theta[j]) == rhs


def test_starred_side_is_star_of_plain(qrac3):
    co = recurrence_coeffs(Analysis(qrac3))
    so = recurrence_coeffs(Analysis(d4_apply(qrac3, ["star"])))
    assert co.astar == so.a and co.bstar == so.b and co.cstar == so.c


def test_alt_formulas(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        rep = verify_alt_formulas(Analysis(p))
        assert rep.ok(), rep.failures


def test_alt_formulas_detect_broken_arrays(kraw3):
    broken = make_array(kraw3.field, kraw3.theta, kraw3.theta_star,
                        (Q.from_int(3),) + kraw3.varphi[1:], kraw3.phi)
    assert not verify_alt_formulas(Analysis(broken)).ok()


def test_a_d_closed_form_is_not_an_identity_of_pa1_to_pa4():
    # varphi and phi from PA3/PA4 (split_sequences with phi_1 = 2): only
    # PA5 fails, and so does the a_d closed form
    p = qarr([0, 1, 3, 4], [0, 1, 2, 3], [-2, -3, -1], [2, 3, 1])
    assert [line.split(" fail")[0] for line in validate(p).failures] == ["PA5"]
    assert "a_d closed form fails" in verify_alt_formulas(Analysis(p)).failures


def test_three_term_detects_broken_arrays(kraw3):
    broken = make_array(kraw3.field, kraw3.theta, kraw3.theta_star,
                        kraw3.varphi, (Q.from_int(-4),) + kraw3.phi[1:])
    assert not verify_three_term(Analysis(broken)).ok()


def test_recurrence_coeffs_read_one_sided_products():
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    a = Analysis(generate(fp, Q))
    a.pair
    # 128 of them once the pair's one-sided products are formed; 672 when
    # recurrence_coeffs took its own one-sided products, and 1,088 when each
    # coefficient took its own products of differences
    assert count_multiplications(lambda: recurrence_coeffs(a)) <= 128
