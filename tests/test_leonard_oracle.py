"""The structured checks and constructions against the element loops and
dense checks they replaced.

lagrange_leonard_conditions is the O(n^5) check that splitmat used before:
it forms every primitive idempotent as a product of Lagrange factors and
tests each block E_i X E_j as a whole matrix.  sandwich_conjugation is the
conjugation check in the paper's form, Ginv X G = Y, with every product
dense and D^-1 by Gauss-Jordan.  The recurrence coefficients, the weights
and nu, the endpoint check and the three-term and difference checks are
compared with the loops that took each product of differences, and each
sum, entry by entry.  Each fast version must give the same values, or
report the same failures in the same order, or raise the same exception
type, on sampled arrays of every family and on arrays broken in ways that
do and do not keep the blocks tridiagonal.

sandwich_conjugation and eigenvector_leonard_conditions (the check as it
was before it dropped its two eigenvector lines) compute seven lines that
hold on build for every PA1-PA2 sequence (T A = H T, `Tinv` = T^-1, ...)
and that the scoreboard no longer computes.  The audit tests check those
lines on build, over seeded random PA1-PA2 sequences as well as the
sampled arrays, and that the two checks still report what the oracles
report.
"""

import random
from dataclasses import replace
from functools import reduce

import pytest

from leonard import (
    Analysis,
    CheckReport,
    RecurrenceCoeffs,
    RepeatedEigenvalue,
    SquareMatrix,
    build,
    endpoint_evaluations,
    endpoint_values,
    extension_field,
    generate,
    list_families,
    ortho_data,
    prime_field,
    primitive_idempotents,
    proportionality_alphas,
    rational_field,
    recurrence_coeffs,
    sample_params,
    verify_conjugation,
    verify_difference,
    verify_leonard_conditions,
    verify_three_term,
)
from leonard.ortho import OrthoData
from leonard.splitmat import _require_distinct
from conftest import dense_mul, qarr, random_array, satisfies_pa1_pa2

FIELDS = {
    "Q": rational_field(),
    "GF(7)": prime_field(7),
    "GF(11)": prime_field(11),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
}


def lagrange_leonard_conditions(p):
    m = build(p)
    F, d = p.field, p.d
    n = d + 1
    report = CheckReport("leonard-conditions")
    zero_mat = SquareMatrix.build(F, n, lambda i, j: F.zero())
    ident = SquareMatrix.identity(F, n)

    E = primitive_idempotents(m.A, p.theta)
    Estar = primitive_idempotents(m.Astar, p.theta_star)

    for label, fam in (("E", E), ("E*", Estar)):
        total = zero_mat
        for e in fam:
            total = total + e
        if total != ident:
            report.add(f"{label} idempotents do not sum to the identity")
        for i in range(n):
            for j in range(n):
                got = fam[i] * fam[j]
                want = fam[i] if i == j else zero_mat
                if got != want:
                    report.add(f"{label}_{i} {label}_{j} product is wrong")

    for label, fam, op in (("E* A E*", Estar, m.A), ("E A* E", E, m.Astar)):
        for i in range(n):
            for j in range(n):
                block = fam[i] * op * fam[j]
                if abs(i - j) > 1 and block != zero_mat:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and block == zero_mat:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


def sandwich_conjugation(p):
    m = build(p)
    F, n = p.field, p.d + 1
    report = CheckReport("conjugation")

    def mul(*factors):
        return reduce(dense_mul, factors)

    Ginv = mul(m.Tdown.inverse(), m.Z, m.T)
    checks = [
        ("G * Ginv = I", mul(m.G, Ginv), SquareMatrix.identity(F, n)),
        ("Ginv * A * G = B", mul(Ginv, m.A, m.G), m.B),
        ("Ginv * A* * G = B*", mul(Ginv, m.Astar, m.G), m.Bstar),
        ("T A = H T", mul(m.T, m.A), mul(m.H, m.T)),
        ("Z Tdown B = H Z Tdown", mul(m.Z, m.Tdown, m.B), mul(m.H, m.Z, m.Tdown)),
        ("D A* D^-1 T*^t = T*^t H*",
         mul(m.D, m.Astar, m.D.inverse(), m.Tstar.transpose()),
         mul(m.Tstar.transpose(), m.Hstar)),
    ]
    for label, got, want in checks:
        if got != want:
            report.add(label + " violated")
    return report


def outcome(check, p):
    """The failure list, or the type of the exception raised."""
    try:
        return check(p).failures
    except Exception as e:  # the comparison is over exception types
        return type(e)


def perturbations(p, rng):
    """The array, then one copy each with a zero varphi entry, a zero phi
    entry, 1 added to a varphi entry, and 1 added to a theta* entry."""
    F, d = p.field, p.d

    def bumped(values, k, new):
        return tuple(new if i == k else x for i, x in enumerate(values))

    k = rng.randrange(d)
    j = rng.randrange(d + 1)
    yield "as sampled", p
    yield f"varphi_{k + 1} = 0", replace(p, varphi=bumped(p.varphi, k, F.zero()))
    yield f"phi_{k + 1} = 0", replace(p, phi=bumped(p.phi, k, F.zero()))
    yield f"varphi_{k + 1} + 1", replace(
        p, varphi=bumped(p.varphi, k, p.varphi[k] + F.one()))
    yield f"theta*_{j} + 1", replace(
        p, theta_star=bumped(p.theta_star, j, p.theta_star[j] + F.one()))


def sampled_arrays(label, F):
    """One sampled array per admissible family; the diameter cycles through
    1..4 across families and fields, so each family meets several."""
    rng = random.Random(f"leonard-oracle/{label}")
    shift = list(FIELDS).index(label)
    for index, family in enumerate(list_families()):
        d = 1 + (index + shift) % 4
        fp = sample_params(family, d, F, rng)
        if fp is not None:
            yield f"{family} d={d}", generate(fp, F), rng


def audit_cases(label):
    """The sampled arrays and their perturbations, then 25 seeded random
    PA1-PA2 sequences (almost all of them invalid) at each d = 1..5 that
    the field has room for."""
    F = FIELDS[label]
    for name, p, rng in sampled_arrays(label, F):
        yield from ((name, change, q) for change, q in perturbations(p, rng))
    rng = random.Random(f"construction-audit/{label}")
    for d in range(1, 6):
        if not F.is_finite() or d < F.order():
            for k in range(25):
                yield f"random d={d}", k, random_array(F, d, rng)


@pytest.mark.parametrize("label", list(FIELDS))
def test_eigenvector_check_matches_lagrange_oracle(label):
    F = FIELDS[label]
    compared = set()
    for name, p, rng in sampled_arrays(label, F):
        for change, q in perturbations(p, rng):
            want = outcome(lagrange_leonard_conditions, q)
            got = outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), q)
            assert got == want, (label, name, change)
            compared.add("raises" if isinstance(want, type)
                         else "fails" if want else "passes")
    # raising is left to the next test: over Q no shift hits another theta*
    assert {"passes", "fails"} <= compared, compared


def test_oracle_call_order_on_repeated_eigenvalues():
    # build fails first on a repeated theta, before either eigenvalue test
    both = qarr([0, 0, 2], [0, 0, 2], [1, 1], [1, 1])
    only_star = qarr([0, 1, 2], [0, 0, 2], [1, 1], [1, 1])
    for p in (both, only_star):
        want = outcome(lagrange_leonard_conditions, p)
        assert isinstance(want, type)
        assert outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), p) is want
    with pytest.raises(RepeatedEigenvalue):
        verify_leonard_conditions(Analysis(only_star))


@pytest.mark.parametrize("label", list(FIELDS))
def test_conjugation_check_matches_sandwich_oracle(label):
    compared = set()
    for name, change, q in audit_cases(label):
        want = outcome(sandwich_conjugation, q)
        got = outcome(lambda arr: verify_conjugation(Analysis(arr)), q)
        assert got == want, (label, name, change)
        compared.add("raises" if isinstance(want, type)
                     else "fails" if want else "passes")
    # a zero varphi makes D singular
    assert compared == {"passes", "fails", "raises"}, compared


def one_side_oracle(theta0, dual, varphi, phi):
    """recur._one_side as it was before it read one_sided_products: each
    b_i and c_i takes its own products of differences."""
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


def recurrence_oracle(p):
    a, b, c = one_side_oracle(p.theta[0], p.theta_star, p.varphi, p.phi)
    astar, bstar, cstar = one_side_oracle(p.theta_star[0], p.theta,
                                          p.varphi, tuple(reversed(p.phi)))
    return RecurrenceCoeffs(a=a, b=b, c=c, astar=astar, bstar=bstar, cstar=cstar)


def ortho_data_oracle(p):
    """ortho_data as it was before it read one_sided_products: each weight
    takes its own product over j != i."""
    F, d = p.field, p.d
    th, ths, vp, ph = p.theta, p.theta_star, p.varphi, p.phi
    one = F.one()

    def weights(eigs, num_seq, den_seq):
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
    kstar = weights(th, vp, tuple(reversed(ph)))
    nu = one
    for j in range(1, d + 1):
        nu = nu * (th[0] - th[j]) * (ths[0] - ths[j])
    for x in ph:
        nu = nu * x.inverse()
    return OrthoData(k=k, kstar=kstar, nu=nu)


def endpoint_oracle(a):
    """endpoint_values as it was before it read one_sided_products."""
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


def three_term_oracle(a):
    """verify_three_term as it was before it compared H P with P J: every
    side of every (i, j) summed element by element."""
    p, table, co = a.p, a.polys, a.recurrence
    d = p.d
    report = CheckReport("three-term")
    vals = table.P.rows
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


def difference_oracle(a):
    """verify_difference as it was before it compared P H* with J* P."""
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


def value_outcome(fn, p):
    """fn(p), or the type of the exception it raised."""
    try:
        return fn(p)
    except Exception as e:  # the comparison is over exception types
        return type(e)


def oracle_cases(label):
    """The sampled arrays and their perturbations, each array followed by
    one more copy with 1 added to theta_d, which the starred side reads."""
    F = FIELDS[label]
    for name, p, rng in sampled_arrays(label, F):
        yield from ((name, change, q) for change, q in perturbations(p, rng))
        yield name, f"theta_{p.d} + 1", replace(
            p, theta=p.theta[:-1] + (p.theta[-1] + F.one(),))


@pytest.mark.parametrize("label", list(FIELDS))
def test_products_of_differences_match_element_loops(label):
    """recurrence_coeffs and ortho_data give the values of the loops they
    replaced, or raise the same exception type."""
    compared = set()
    for name, change, q in oracle_cases(label):
        for fn, oracle in ((recurrence_coeffs, recurrence_oracle),
                           (ortho_data, ortho_data_oracle)):
            want = value_outcome(oracle, q)
            assert value_outcome(fn, q) == want, (label, name, change, fn.__name__)
            compared.add("raises" if isinstance(want, type) else "values")
    # a zero phi makes the weights raise
    assert compared == {"values", "raises"}, compared


@pytest.mark.parametrize("label", list(FIELDS))
def test_checks_on_products_match_element_loops(label):
    """endpoint_values, verify_three_term and verify_difference report what
    the element loops they replaced report, in the same order."""
    compared = set()
    for name, change, q in oracle_cases(label):
        for check, oracle in ((endpoint_values, endpoint_oracle),
                              (verify_three_term, three_term_oracle),
                              (verify_difference, difference_oracle)):
            want = outcome(lambda arr: oracle(Analysis(arr)), q)
            got = outcome(lambda arr: check(Analysis(arr)), q)
            assert got == want, (label, name, change, check.__name__)
            compared.add((check.__name__, "raises" if isinstance(want, type)
                          else "fails" if want else "passes"))
    assert {kind for _, kind in compared} == {"passes", "fails", "raises"}, compared


def eigenvector_leonard_conditions(a):
    """verify_leonard_conditions as it was before it dropped its two
    eigenvector lines, A U = U H and A* V = V H*."""
    m = a.matrices
    p = a.p
    _require_distinct(p.theta)
    _require_distinct(p.theta_star)
    F, n = p.field, p.d + 1
    zero, one = F.zero(), F.one()
    ths, vp = p.theta_star, p.varphi

    V, Vinv = ([[zero] * n for _ in range(n)] for _ in range(2))
    for j in range(n):
        V[j][j] = Vinv[j][j] = one
        for k in range(j + 1, n):
            Vinv[j][k] = Vinv[j][k - 1] * vp[k - 1] * (ths[j] - ths[k]).inverse()
        for k in range(j - 1, -1, -1):
            V[k][j] = vp[k] * V[k + 1][j] * (ths[j] - ths[k]).inverse()
    V, Vinv = (SquareMatrix.from_rows(F, x) for x in (V, Vinv))

    report = CheckReport("leonard-conditions")
    if m.A * m.Tinv != m.Tinv * m.H:
        report.add("A U = U H violated")
    if m.Astar * V != V * m.Hstar:
        report.add("A* V = V H* violated")

    for label, block in (("E* A E*", Vinv * m.A * V),
                         ("E A* E", m.T * m.Astar * m.Tinv)):
        for i, row in enumerate(block.values):
            for j, x in enumerate(row):
                if abs(i - j) > 1 and x != F.zero_value:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and x == F.zero_value:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


# the lines that sandwich_conjugation and eigenvector_leonard_conditions
# compute and the scoreboard does not: identities of build for distinct
# theta and theta* and nonzero varphi
CONSTRUCTION_LINES = {
    "G * Ginv = I violated",
    "Ginv * A * G = B violated",
    "T A = H T violated",
    "Z Tdown B = H Z Tdown violated",
    "D A* D^-1 T*^t = T*^t H* violated",
    "A U = U H violated",
    "A* V = V H* violated",
}


@pytest.mark.parametrize("label", list(FIELDS))
def test_dropped_lines_are_identities_of_build(label):
    """On every PA1-PA2 audit case the seven lines that the scoreboard no
    longer computes hold on build, while the A* line and both blocks fail
    on some."""
    failed = set()
    for name, change, q in audit_cases(label):
        if satisfies_pa1_pa2(q):
            lines = (sandwich_conjugation(q).failures
                     + eigenvector_leonard_conditions(Analysis(q)).failures)
            assert not CONSTRUCTION_LINES & set(lines), (label, name, change, lines)
            failed.update(line.split(" block")[0] for line in lines)
    assert failed == {"Ginv * A* * G = B* violated", "E* A E*", "E A* E"}, failed


@pytest.mark.parametrize("label", list(FIELDS))
def test_leonard_conditions_match_eigenvector_oracle(label):
    """verify_leonard_conditions reports the block failures of the check
    that also computed the eigenvector lines, or raises the same exception
    type, on every audit case."""
    compared = set()
    for name, change, q in audit_cases(label):
        want = outcome(lambda arr: eigenvector_leonard_conditions(Analysis(arr)), q)
        got = outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), q)
        assert got == want, (label, name, change)
        compared.add("raises" if isinstance(want, type)
                     else "fails" if want else "passes")
    # a theta* shift can repeat an eigenvalue over the finite fields only
    assert {"passes", "fails"} <= compared, compared
