"""The structured checks and constructions against the element loops and
dense checks they replaced.

lagrange_leonard_conditions is the O(n^5) check that splitmat used before:
it forms every primitive idempotent as a product of Lagrange factors and
tests each block E_i X E_j as a whole matrix.  sandwich_conjugation is the
conjugation check in the paper's form, Ginv X G = Y, with every product
dense and D^-1 by Gauss-Jordan.  The recurrence coefficients, the weights
and nu, the endpoint check and the three-term and difference checks are
compared with the loops that took each product of differences, and each
sum, entry by entry.  The polynomial table, the weights and the alphas,
which read D and Ddown from `Analysis.splits`, are compared with the
versions that formed their own prefix products of varphi and phi and
their own cumulative phi/varphi ratios.  Each fast version must give the same values, or
report the same failures in the same order, or raise the same exception
type, on sampled arrays of every family and on arrays broken in ways that
do and do not keep the blocks tridiagonal.

recurrence_leonard_conditions is the Leonard check as it was before it
read E* A E* off the dual array: V and V^-1 from element recurrences, one
inverse per ordered pair of dual eigenvalues.  It is compared on the audit
cases and on random sequences with up to two zero varphi_i, and the
identity that relates its block to the dual one is checked entry by entry.

parent_pa5_failures is the PA5 block of `validate` as it was when it
formed each ratio as a quotient and compared the quotients.  `validate`
compares cross-products and divides only to write a failure line; it must
report the same PA5 lines, in the same order and text, after the same
PA1-PA4 lines, on the audit cases and on arrays at d = 3..7 over Q, GF(7),
GF(9) and GF(3^8) with one theta or theta* entry bumped or repeated.

sandwich_conjugation and eigenvector_leonard_conditions (the recurrence
check with its two eigenvector lines back) compute seven lines that
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
    corresponding_polys,
    d4_apply,
    endpoint_evaluations,
    endpoint_values,
    extension_field,
    generate,
    list_families,
    make_array,
    ortho_data,
    prime_field,
    primitive_idempotents,
    proportionality_alphas,
    rational_field,
    recurrence_coeffs,
    sample_params,
    validate,
    verify_alt_formulas,
    verify_conjugation,
    verify_difference,
    verify_leonard_conditions,
    verify_three_term,
)
from leonard.fields import _find_irreducible
from leonard.ortho import OrthoData
from leonard.parray import split_sequences
from leonard.polys import PolyTable
from leonard.splitmat import _require_distinct, divided_differences
from conftest import dense_mul, qarr, random_array, satisfies_pa1_pa2

FIELDS = {
    "Q": rational_field(),
    "GF(7)": prime_field(7),
    "GF(11)": prime_field(11),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
}
# the alt-recurrence tests also run over a larger prime field and over GF(9)
ALT_FIELDS = {**FIELDS, "GF(101)": prime_field(101),
              "GF(9)": extension_field(3, 2, (1, 0, 1))}


def lagrange_leonard_conditions(p):
    m = build(Analysis(p))
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
    m = build(Analysis(p))
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
    shift = list(ALT_FIELDS).index(label)
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


def parent_pa5_failures(p):
    """The PA5 failure lines of validate, each ratio a quotient."""
    rep = CheckReport("validate")

    def fail(condition: str, indices: tuple[int, ...], detail: str) -> None:
        rep.add(f"{condition} fail at {list(indices)}: {detail}")

    d = p.d
    if d >= 3:
        ratios = []
        for i in range(2, d):
            den = p.theta[i - 1] - p.theta[i]
            den_s = p.theta_star[i - 1] - p.theta_star[i]
            if not den or not den_s:
                fail("PA5", (i,), "zero denominator (theta repeats)")
                ratios.append(None)
                continue
            r = (p.theta[i - 2] - p.theta[i + 1]) / den
            r_s = (p.theta_star[i - 2] - p.theta_star[i + 1]) / den_s
            if r != r_s:
                fail("PA5", (i,), f"theta ratio {r} != theta* ratio {r_s}")
            ratios.append(r)
        for i in range(len(ratios) - 1):
            a, b = ratios[i], ratios[i + 1]
            if a is not None and b is not None and a != b:
                fail("PA5", (i + 2, i + 3), f"ratio changes: {a} then {b}")
    return rep.failures


PA5_FIELDS = {
    "Q": rational_field(),
    "GF(7)": prime_field(7),
    "GF(9)": ALT_FIELDS["GF(9)"],
    "GF(3^8)": extension_field(3, 8, _find_irreducible(3, 8)),
}


def pa5_cases(F, rng):
    """At each d = 3..7: an array of every family the field hosts there and
    five of random sequences, each followed by copies with one theta or
    theta* entry bumped by one or set equal to another entry."""
    def changed(values, k, new):
        return tuple(new if i == k else x for i, x in enumerate(values))

    for d in range(3, 8):
        arrays = [generate(fp, F) for fp in (sample_params(family, d, F, rng)
                                              for family in list_families())
                  if fp is not None]
        for _ in range(5):
            arrays.append(make_array(F, *([F.random_element(rng) for _ in range(n)]
                                          for n in (d + 1, d + 1, d, d))))
        for p in arrays:
            yield p
            for name in ("theta", "theta_star"):
                seq = getattr(p, name)
                j, k = rng.sample(range(d + 1), 2)
                yield replace(p, **{name: changed(seq, j, seq[j] + F.one())})
                yield replace(p, **{name: changed(seq, j, seq[k])})


def pa5_lines_match_the_quotients(p):
    """The kinds of PA5 line validate wrote, after checking them."""
    got = validate(p).failures
    want = parent_pa5_failures(p)
    assert got == [line for line in got if not line.startswith("PA5")] + want
    return {line.split(": ")[1].split()[0] for line in want} or {"pass"}


@pytest.mark.parametrize("label", list(FIELDS))
def test_pa5_cross_products_match_the_quotients_on_the_audit_cases(label):
    for name, change, q in audit_cases(label):
        pa5_lines_match_the_quotients(q)


@pytest.mark.parametrize("label", list(PA5_FIELDS))
def test_pa5_cross_products_match_the_quotients(label):
    F = PA5_FIELDS[label]
    rng = random.Random(f"pa5/{label}")
    seen = set()
    for p in pa5_cases(F, rng):
        seen |= pa5_lines_match_the_quotients(p)
    # every kind of PA5 line: none, zero denominator, theta ratio, ratio changes
    assert seen == {"pass", "zero", "theta", "ratio"}, seen


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
    for i, alpha in enumerate(proportionality_alphas(a)):
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
            got = value_outcome(lambda arr: fn(Analysis(arr)), q)
            assert got == want, (label, name, change, fn.__name__)
            compared.add("raises" if isinstance(want, type) else "values")
    # a zero phi makes the weights raise
    assert compared == {"values", "raises"}, compared


def polys_oracle(a):
    """corresponding_polys as it was before it read Analysis.splits: D^-1
    and Ddown^-1 from their own running products, inverted entry by entry."""
    p, pair = a.p, a.pair
    F = p.field

    def inverse_diagonal(values):
        products = [F.one()]
        for v in values:
            products.append(products[-1] * v)
        return SquareMatrix.diagonal(F, [x.inverse() for x in products])

    Dinv, Ddown_inv = inverse_diagonal(p.varphi), inverse_diagonal(p.phi)
    Tstar_t = pair.Tstar.transpose()
    down = pair.Tdown * Ddown_inv * Tstar_t
    return PolyTable(P=pair.T * Dinv * Tstar_t,
                     Pdown=SquareMatrix(F, p.d + 1, down.values[::-1]))


def ratio_weights_oracle(a):
    """ortho_data as it was before it read Analysis.splits: the one-sided
    products of the pair, times a cumulative varphi/phi ratio for each
    weight family, and nu over its own product of phi."""
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
    kstar = weights(below, above, vp, tuple(reversed(ph)))
    nu = above[0] * above_s[0] * reduce(lambda x, y: x * y, ph, F.one()).inverse()
    return OrthoData(k=k, kstar=kstar, nu=nu)


def alphas_oracle(a):
    """proportionality_alphas as it was before it read Analysis.splits: the
    cumulative ratios of phi over varphi."""
    p = a.p
    alpha = [p.field.one()]
    for i in range(1, p.d + 1):
        alpha.append(alpha[-1] * p.phi[i - 1] * p.varphi[i - 1].inverse())
    return alpha


@pytest.mark.parametrize("label", list(FIELDS))
def test_split_readers_match_ratio_loops(label):
    """corresponding_polys, ortho_data and proportionality_alphas give the
    values of the versions that formed their own prefix products and
    ratios, or raise the same exception type, on every audit case."""
    readers = ((corresponding_polys, polys_oracle),
               (ortho_data, ratio_weights_oracle),
               (proportionality_alphas, alphas_oracle))
    compared = set()
    for name, change, q in audit_cases(label):
        for fn, oracle in readers:
            want = value_outcome(lambda arr: oracle(Analysis(arr)), q)
            got = value_outcome(lambda arr: fn(Analysis(arr)), q)
            assert got == want, (label, name, change, fn.__name__)
            compared.add((fn.__name__, "raises" if isinstance(want, type) else "values"))
    # a zero varphi makes D^-1 and the alphas raise, a zero phi Ddown^-1
    # and the weights
    assert compared == {(fn.__name__, kind) for fn, _ in readers
                        for kind in ("values", "raises")}, compared


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


def recurrence_eigenvectors(a):
    """V and V^-1 for A*, by the element recurrences that
    verify_leonard_conditions took them from before it read E* A E* off the
    dual array, after build and the two eigenvalue tests, in that order:
    V[k][j] = varphi_{k+1} V[k+1][j] / (theta*_j - theta*_k) and
    V^-1[i][k] = V^-1[i][k-1] varphi_k / (theta*_i - theta*_k) for k > i,
    one inverse per ordered pair of dual eigenvalues and none of a varphi."""
    a.matrices
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
    return tuple(SquareMatrix.from_rows(F, x) for x in (V, Vinv))


def add_block_failures(report, a, V, Vinv):
    """The block lines, E* A E* from Vinv A V and E A* E from T A* T^-1."""
    m, zero = a.matrices, a.p.field.zero_value
    for label, block in (("E* A E*", Vinv * m.A * V),
                         ("E A* E", m.T * m.Astar * m.Tinv)):
        for i, row in enumerate(block.values):
            for j, x in enumerate(row):
                if abs(i - j) > 1 and x != zero:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and x == zero:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


def recurrence_leonard_conditions(a):
    """verify_leonard_conditions as it was before it read E* A E* off the
    dual array's T* A*' T*^-1: the block of V^-1 A V, with V and V^-1 from
    the element recurrences."""
    V, Vinv = recurrence_eigenvectors(a)
    return add_block_failures(CheckReport("leonard-conditions"), a, V, Vinv)


def eigenvector_leonard_conditions(a):
    """verify_leonard_conditions as it was before it dropped its two
    eigenvector lines, A U = U H and A* V = V H*."""
    V, Vinv = recurrence_eigenvectors(a)
    m = a.matrices
    report = CheckReport("leonard-conditions")
    if m.A * m.Tinv != m.Tinv * m.H:
        report.add("A U = U H violated")
    if m.Astar * V != V * m.Hstar:
        report.add("A* V = V H* violated")
    return add_block_failures(report, a, V, Vinv)


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


def zero_varphi_sequences(label):
    """Seeded random PA1-PA2 sequences with none, one and two of their
    varphi_i set to zero (PA1 alone, then), 10 of each at every d = 1..6
    that the field has room for."""
    F = FIELDS[label]
    rng = random.Random(f"zero-varphi/{label}")
    for d in range(1, 7):
        if F.is_finite() and d >= F.order():
            continue
        for zeros in range(min(d, 2) + 1):
            for k in range(10):
                p = random_array(F, d, rng)
                hit = set(rng.sample(range(d), zeros))
                varphi = tuple(F.zero() if i in hit else x for i, x in enumerate(p.varphi))
                yield f"random d={d}", f"{zeros} zero varphi, draw {k}", replace(p, varphi=varphi)


@pytest.mark.parametrize("label", list(FIELDS))
def test_leonard_conditions_match_recurrence_oracle(label):
    """verify_leonard_conditions, which reads E* A E* off the dual array,
    reports the failures of the V and V^-1 recurrences it replaced, in the
    same order, or raises the same exception type: on every audit case and
    on random sequences with up to two zero varphi_i."""
    compared = set()
    cases = list(audit_cases(label)) + list(zero_varphi_sequences(label))
    for name, change, q in cases:
        want = outcome(lambda arr: recurrence_leonard_conditions(Analysis(arr)), q)
        got = outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), q)
        assert got == want, (label, name, change)
        compared.add("raises" if isinstance(want, type)
                     else "fails" if want else "passes")
    # a theta* shift can repeat an eigenvalue over the finite fields only
    assert {"passes", "fails"} <= compared, compared


@pytest.mark.parametrize("label", list(FIELDS))
def test_dual_block_gives_the_recurrence_block_entry_by_entry(label):
    """For i <= j, (V^-1 A V)_ij = varphi_{i+1} .. varphi_j (below*_i /
    below*_j) K[j][i] with K = T* A*' T*^-1, the E A* E block of the dual
    array; below the diagonal V^-1 A V is 1 at (i + 1, i) and 0 further
    down.  Checked exactly, zero varphi_i included."""
    for name, change, p in zero_varphi_sequences(label):
        a = Analysis(p)
        V, Vinv = recurrence_eigenvectors(a)
        block = (Vinv * a.matrices.A * V).rows
        F, n, pair = p.field, p.d + 1, a.pair
        below = pair.sides_star[0]
        K = (pair.Tstar * SquareMatrix.diagonal(F, p.theta, above=p.varphi)
             * divided_differences(F, p.theta_star, *pair.sides_star)).rows
        for i in range(n):
            for j in range(n):
                if i <= j:
                    scale = reduce(lambda x, y: x * y, p.varphi[i:j], F.one())
                    want = scale * below[i] * below[j].inverse() * K[j][i]
                else:
                    want = F.one() if i == j + 1 else F.zero()
                assert block[i][j] == want, (label, name, change, i, j)


def alt_checks_oracle(p, co, report, tag):
    """recur._alt_checks as it was before it compared only a_i and the
    weighted identity for 1 <= i <= d: every closed form at every i, the
    dual side read off d4_apply(p, ["star"])."""
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


def alt_formulas_oracle(a):
    """verify_alt_formulas on alt_checks_oracle, for d >= 1."""
    p, co = a.p, a.recurrence
    report = CheckReport("alt-recurrence")
    alt_checks_oracle(p, (co.a, co.b, co.c), report, "")
    alt_checks_oracle(d4_apply(p, ["star"]), (co.astar, co.bstar, co.cstar), report, "dual ")
    return report


# the oracle's lines at 0 and d that hold on recurrence_coeffs, on each side
ALT_IDENTITIES = {"a_0 closed form fails", "b_0 closed form fails",
                  "c_d closed form fails", "weighted b/c difference identity fails at 0"}


def dropped_alt_line(line):
    """The oracle lines that verify_alt_formulas no longer computes: the
    identities, and b_i and c_i for 0 < i < d, which fail exactly when the
    weighted identity at i does."""
    line = line.removeprefix("dual ")
    return line in ALT_IDENTITIES or line.startswith(("b_", "c_"))


def alt_sequences(label):
    """Seeded random PA1-PA2 sequences, 60 at each d = 1..7 that the field
    has room for.  Every other one has varphi and phi completed by
    split_sequences from its theta, theta* and a random phi_1, so PA3/PA4
    hold (PA2 may not); every fifth has one theta*_i moved onto another."""
    F = ALT_FIELDS[label]
    rng = random.Random(f"alt-recurrence/{label}")
    for d in range(1, 8):
        if F.is_finite() and d >= F.order():
            continue
        for k in range(60):
            p, change = random_array(F, d, rng), f"draw {k}"
            if k % 2:
                varphi, phi = split_sequences(p.theta, p.theta_star,
                                              F.random_element(rng, nonzero=True))
                p, change = replace(p, varphi=tuple(varphi), phi=tuple(phi)), f"{change}, PA3/PA4"
            if k % 5 == 0:
                i, j = rng.sample(range(d + 1), 2)
                theta_star = p.theta_star[:i] + (p.theta_star[j],) + p.theta_star[i + 1:]
                p, change = replace(p, theta_star=theta_star), f"{change}, theta*_{i} = theta*_{j}"
            yield f"random d={d}", change, p


@pytest.mark.parametrize("label", list(ALT_FIELDS))
def test_alt_formulas_match_oracle_less_its_dropped_lines(label):
    """verify_alt_formulas reports the oracle's failures less the dropped
    lines, or raises the same exception type: on the sampled arrays and
    their perturbations, and on the random sequences."""
    F = ALT_FIELDS[label]
    cases = [(name, change, q) for name, p, rng in sampled_arrays(label, F)
             for change, q in perturbations(p, rng)]
    compared = set()
    for name, change, q in cases + list(alt_sequences(label)):
        want = outcome(lambda arr: alt_formulas_oracle(Analysis(arr)), q)
        got = outcome(lambda arr: verify_alt_formulas(Analysis(arr)), q)
        if not isinstance(want, type):
            want = {line for line in want if not dropped_alt_line(line)}
            got = set(got) if isinstance(got, list) else got
        assert got == want, (label, name, change)
        compared.add("raises" if isinstance(want, type)
                     else "fails" if want else "passes")
    assert compared == {"passes", "fails", "raises"}, compared


@pytest.mark.parametrize("label", list(ALT_FIELDS))
def test_dropped_alt_lines_are_identities_of_recurrence_coeffs(label):
    """On every random PA1-PA2 sequence, on both sides of recurrence_coeffs,
    the a_0, b_0 and c_d closed forms and the weighted identity at 0 hold,
    and for 0 < i < d the b_i and c_i closed forms hold exactly when the
    weighted identity at i does, which fails on some."""
    failed = set()
    for name, change, q in alt_sequences(label):
        if not satisfies_pa1_pa2(q):
            continue
        lines = set(alt_formulas_oracle(Analysis(q)).failures)
        for tag in ("", "dual "):
            assert not {tag + line for line in ALT_IDENTITIES} & lines, (label, name, change)
            for i in range(1, q.d):
                group = {f"{tag}b_{i} closed form fails", f"{tag}c_{i} closed form fails",
                         f"{tag}weighted b/c difference identity fails at {i}"}
                assert len(group & lines) in (0, 3), (label, name, change, i)
                if group <= lines:
                    failed.add(tag + "interior")
    assert failed == {"interior", "dual interior"}, failed
