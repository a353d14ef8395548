"""The recurrence and triangular-factor routes of the scoreboard against
the dense products and the table P they replace.

Where every varphi_i and phi_i is nonzero and the three-term and difference
comparisons of `Analysis` hold, verify_leonard_conditions takes its blocks
to be K = T* A*' T*^-1 = J^t and T A* T^-1 = J* (LS99's dual recurrence),
and where both hold and b_i != 0 for i < d, verify_orthogonality settles
the row Gram P^t K* P = diag(nu / k_i) from J and its first row (Favard's
argument), which J* fixes in turn.  Where PA1 and PA2 hold, the
comparisons, proportionality and the endpoint values are read off the
triangular factors T and T* of P = T D^-1 T*^t, and P is not formed.  The
dense products and the routes on P stay as the fallback
(`dense_leonard_blocks`, `_gram_failures`, and the comparisons and the
proportionality check on P and Pdown), and they, or copies of the checks
as they read P, are the oracles here:

- the two identities hold, and the row route agrees with the dense Gram,
  on sampled arrays over Q, GF(101), GF(3^4) and GF(2^4) at d <= 12, and
  on every array of GF(4) at d <= 3;
- on arrays where a comparison fails, a varphi_i or phi_i is zero or a
  theta* repeats, and on every PA1-PA2 sequence of GF(4) at d = 1, both
  checks report the lines of the dense route, or raise its exception type;
- weights or tables changed under an Analysis, where the row route applies
  but the rows fail, give the dense Gram's lines, and alphas changed under
  it, where the proportionality test on T* applies but fails, give the
  line of the route on P and Pdown;
- on the passing path over GF(1000003) and over Q at d = 8, 16 and 32, no
  check makes a kernel call or forms P, and the products of the
  comparisons, the conjugation check, proportionality, endpoint-values,
  orthogonality's row route and build grow by at most 4.5 per
  doubling of d, where P's grow by about 8;
- the three-term, difference and conjugation checks give the lines of the
  dense products (`dense_three_term`, `dense_difference`,
  `dense_conjugation`) in their order, or raise their exception type, on
  the perturbed arrays;
- the proportionality, endpoint-values, duality and orthogonality checks
  give the lines of the routes that formed P (`TABLE_READERS`), or raise
  their exception type, on the perturbed arrays.

    python tests/test_recurrence_routes.py D

runs the last two comparisons on the CI q-Racah array over Q at diameter
D and on twelve perturbations of it, and compares build's G, or the
exception it raises, with the dense route T^-1 Z Tdown on each; CI runs
it at D = 24.
"""

import itertools
import random
import sys
from dataclasses import replace

import pytest

from leonard import (
    Analysis,
    CheckReport,
    SingularMatrix,
    build,
    duality_check,
    endpoint_values,
    enumerate_arrays,
    extension_field,
    generate,
    list_families,
    make_array,
    prime_field,
    rational_field,
    sample_params,
    verify_conjugation,
    verify_leonard_conditions,
    verify_orthogonality,
    verify_proportionality,
)
from leonard.fields import _find_irreducible
from leonard.ortho import _gram_failures, _rows_hold
from leonard.polys import PolyTable, _companions_recur
from leonard.recur import Comparison, difference_comparison, three_term_comparison
from leonard.splitmat import SquareMatrix, _require_distinct, dense_leonard_blocks
from conftest import (ci_q_racah, comparison_matrix, count_multiplications,
                      dense_transition_matrix)

FIELDS = {
    "Q": rational_field(),
    "GF(101)": prime_field(101),
    "GF(3^4)": extension_field(3, 4, _find_irreducible(3, 4)),
    "GF(2^4)": extension_field(2, 4, _find_irreducible(2, 4)),
}
GF4 = extension_field(2, 2, (1, 1, 1))


def sampled_arrays(label):
    """One sampled array per admissible family at three diameters, which
    cycle through 1..4, 5..8 and 9..12 across the families."""
    F = FIELDS[label]
    rng = random.Random(f"recurrence-routes/{label}")
    for index, family in enumerate(list_families()):
        for d in (1 + index % 4, 5 + index % 4, 9 + index % 4):
            fp = sample_params(family, d, F, rng)
            if fp is not None:
                yield f"{family} d={d}", generate(fp, F)


def census_arrays():
    for d in (1, 2, 3):
        for p in enumerate_arrays(GF4, d):
            yield f"GF(4) d={d}", p


def dense_leonard_conditions(a):
    """verify_leonard_conditions with its blocks always from the products
    of dense_leonard_blocks: the check as it was before it read them off
    the recurrence comparisons."""
    a.matrices
    p = a.p
    _require_distinct(p.theta_star)
    n, vp = p.d + 1, p.varphi
    zero, one = p.field.zero_value, p.field.one_value
    K, block = dense_leonard_blocks(a)
    K = K.values
    star = [[one if j == i - 1 else K[j][i] if i <= j < next(
        (h for h in range(i + 1, n) if not vp[h - 1]), n) else zero for j in range(n)]
        for i in range(n)]
    report = CheckReport("leonard-conditions")
    for label, rows in (("E* A E*", star), ("E A* E", block.values)):
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if abs(i - j) > 1 and x != zero:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and x == zero:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


def dense_orthogonality(a):
    """verify_orthogonality with the row pass always the dense Gram."""
    P, (k, kstar, nu) = a.polys.P, a.ortho.values
    report = CheckReport("orthogonality")
    _gram_failures(report, "row", P.transpose(), kstar, k, nu)
    if report.failures or nu == P.field.zero_value:
        _gram_failures(report, "column", P, k, kstar, nu)
    return report


def _column_lines(got, want, message):
    """message.format(i, j) for each entry (j, i) where got and want
    differ, column by column."""
    pairs = zip(zip(*got.values), zip(*want.values))
    return [message.format(i, j) for i, (x, y) in enumerate(pairs)
            for j in range(len(x)) if x[j] != y[j]]


def dense_three_term(a):
    """The three-term lines from the products H P and P J, as
    three_term_comparison wrote them before it called
    `Field._intertwining_failures`."""
    p, P = a.p, a.polys.P
    ca, cb, cc = a.recurrence.values[:3]
    H = SquareMatrix.diagonal(p.field, [x.value for x in p.theta])
    J = SquareMatrix.diagonal(p.field, ca, below=cb[:-1], above=cc[1:])
    return _column_lines(H * P, P * J, "recurrence fails for f_{} at theta_{}")


def dense_difference(a):
    """The difference lines from the products P H* and J* P."""
    p, P = a.p, a.polys.P
    astar, bstar, cstar = a.recurrence.values[3:]
    Hstar = SquareMatrix.diagonal(p.field, [x.value for x in p.theta_star])
    Jstar = SquareMatrix.diagonal(p.field, astar, below=cstar[1:], above=bstar[:-1])
    return _column_lines(P * Hstar, Jstar * P, "difference equation fails for f_{} at theta_{}")


def dense_conjugation(a):
    """The conjugation lines from the products A* G and G B*."""
    m, D = a.matrices, a.splits.D
    if a.p.field.zero_value in D:
        raise SingularMatrix(f"no pivot in column {D.index(a.p.field.zero_value)}")
    return [] if m.Astar * m.G == m.G * m.Bstar else ["Ginv * A* * G = B* violated"]


def three_term(a):
    return a.three_term.failures


# each check by Field._intertwining_failures, and by the dense products
INTERTWINING_CHECKS = {
    "three-term": (three_term, dense_three_term),
    "difference": (lambda a: a.difference.failures, dense_difference),
    "conjugation": (lambda a: verify_conjugation(a).failures, dense_conjugation),
}


def scaled_proportionality(a):
    """The proportionality lines from Pdown diag(alpha), formed whole by
    `scale_columns` and compared with P column by column, as
    verify_proportionality did before it scaled one column at a time."""
    P, scaled = a.polys.P.values, a.polys.Pdown.scale_columns(a.alphas).values
    for i, (got, want) in enumerate(zip(zip(*P), zip(*scaled))):
        if got != want:
            return [f"f_{i} is not alpha_{i} times its reversed companion"]
    return []


def table_endpoint_values(a):
    """The endpoint lines from row d of P, formed whole, as endpoint_values
    read them before it took that row off T and T*."""
    report = CheckReport("endpoint-values")
    vals = a.polys.P.values[a.p.d]
    for i, alpha in enumerate(a.alphas):
        if vals[i] != alpha:
            report.add(f"f_{i}(theta_d) differs from the phi/varphi cumulative ratio")
            return report.failures
    a.ortho
    return report.failures


def table_duality(a):
    """duality_check as it was when it formed P to raise where P cannot be
    formed."""
    a.polys
    return []


def table_three_term(a):
    """The three-term comparison decided on a.polys alone, with the lines
    of the dense products: the comparison of a table changed under an
    Analysis, which the passing route no longer reads."""
    ca, cb, cc = a.recurrence.values[:3]
    return Comparison(a.p.field, (ca, cb[:-1], cc[1:]), tuple(dense_three_term(a)))


# the checks that read P, and the routes that formed P (or Pdown) to decide
# them: on a passing array the checks form neither
TABLE_READERS = {
    "proportionality": (lambda a: verify_proportionality(a).failures, scaled_proportionality),
    "endpoint-values": (lambda a: endpoint_values(a).failures, table_endpoint_values),
    "duality": (lambda a: duality_check(a).failures, table_duality),
    "orthogonality": (lambda a: verify_orthogonality(a).failures,
                      lambda a: dense_orthogonality(a).failures),
}


def lines_or_raised(route, a):
    """The lines of route(a) as a list, or the type of the exception
    raised."""
    try:
        return list(route(a))
    except Exception as e:  # the comparison is over exception types
        return type(e)


def outcome(check, p):
    """The failure list of check on a fresh Analysis, or the type of the
    exception raised."""
    try:
        return check(Analysis(p)).failures
    except Exception as e:  # the comparison is over exception types
        return type(e)


def assert_routes_agree_on_array(name, p):
    a = Analysis(p)
    assert not a.three_term.failures and not a.difference.failures, name
    K, block = dense_leonard_blocks(a)
    assert K == comparison_matrix(a.three_term).transpose(), name
    assert block == comparison_matrix(a.difference), name
    assert _rows_hold(a), name
    assert dense_orthogonality(a).failures == [], name
    assert verify_leonard_conditions(a).failures == [], name


@pytest.mark.parametrize("label", list(FIELDS))
def test_blocks_are_the_recurrence_matrices_on_sampled_arrays(label):
    """T A* T^-1 = J*, T* A*' T*^-1 = J^t and the row route passes with the
    dense Gram on every sampled array up to d = 12."""
    diameters = set()
    for name, p in sampled_arrays(label):
        assert_routes_agree_on_array(name, p)
        diameters.add(p.d)
    assert max(diameters) >= 9, diameters


def test_blocks_are_the_recurrence_matrices_on_every_array_of_gf4():
    count = 0
    for name, p in census_arrays():
        assert_routes_agree_on_array(name, p)
        count += 1
    assert count == 288 + 576 + 576


def perturbations(p, rng):
    """The array, then copies on which a comparison fails (phi_k + 1, which
    keeps the triple (theta, theta*, varphi) a Leonard pair; varphi_k + 1;
    theta_d + 1; theta*_j + 1), a zero varphi_k, a zero phi_k and a
    repeated theta*."""
    F, d = p.field, p.d

    def bumped(values, k, new):
        return tuple(new if i == k else x for i, x in enumerate(values))

    k, j = rng.randrange(d), rng.randrange(d + 1)
    one = F.one()
    yield "as sampled", p
    yield f"phi_{k + 1} + 1", replace(p, phi=bumped(p.phi, k, p.phi[k] + one))
    yield f"varphi_{k + 1} + 1", replace(p, varphi=bumped(p.varphi, k, p.varphi[k] + one))
    yield f"theta_{d} + 1", replace(p, theta=bumped(p.theta, d, p.theta[d] + one))
    yield f"theta*_{j} + 1", replace(
        p, theta_star=bumped(p.theta_star, j, p.theta_star[j] + one))
    yield f"varphi_{k + 1} = 0", replace(p, varphi=bumped(p.varphi, k, F.zero()))
    yield f"phi_{k + 1} = 0", replace(p, phi=bumped(p.phi, k, F.zero()))
    yield "theta*_1 = theta*_0", replace(
        p, theta_star=bumped(p.theta_star, 1, p.theta_star[0]))


def every_sequence_of_gf4_at_d1():
    """Every theta and theta* without repeats and every nonzero varphi and
    phi of GF(4) at d = 1: 1,296 sequences, 288 of them arrays."""
    elements = list(GF4.elements())
    nonzero = [x for x in elements if x]
    pairs = list(itertools.permutations(elements, 2))
    for theta, theta_star, vp, ph in itertools.product(pairs, pairs, nonzero, nonzero):
        yield "GF(4) d=1", "sequence", make_array(GF4, theta, theta_star, (vp,), (ph,))


def perturbed_cases():
    for label in FIELDS:
        rng = random.Random(f"recurrence-routes/perturbed/{label}")
        for name, p in sampled_arrays(label):
            if p.d <= 8:
                for change, q in perturbations(p, rng):
                    yield label, f"{name}, {change}", q
    yield from every_sequence_of_gf4_at_d1()


def test_checks_match_the_dense_route_on_perturbed_arrays():
    """Both checks give the dense route's lines in its order, or raise its
    exception type; every outcome occurs, on both routes."""
    seen = set()
    for label, name, q in perturbed_cases():
        for check, oracle in ((verify_leonard_conditions, dense_leonard_conditions),
                              (verify_orthogonality, dense_orthogonality)):
            want = outcome(oracle, q)
            assert outcome(check, q) == want, (label, name, check.__name__)
            kind = "raises" if isinstance(want, type) else "fails" if want else "passes"
            seen.add((check.__name__, kind))
    assert seen == {(check, kind) for check in ("verify_leonard_conditions",
                                                "verify_orthogonality")
                    for kind in ("passes", "fails", "raises")}, seen


def test_intertwining_checks_match_the_dense_products_on_perturbed_arrays():
    """The three-term, difference and conjugation checks give the lines of
    the dense products in their order, or raise their exception type, on
    the perturbed arrays; every outcome occurs for each check.  Where PA1
    and PA2 hold, the three-term and difference comparisons are first
    decided on T* and T, and arrays that fail there are among them."""
    seen = set()
    for label, name, q in perturbed_cases():
        a = Analysis(q)
        for check, (route, oracle) in INTERTWINING_CHECKS.items():
            want = lines_or_raised(oracle, a)
            assert lines_or_raised(route, a) == want, (label, name, check)
            seen.add((check, "raises" if isinstance(want, type) else "fails" if want
                      else "passes"))
            if check != "conjugation" and want and not isinstance(want, type) \
                    and a.pa1_pa2:
                seen.add((check, "fails under PA1 and PA2"))
    assert seen == {(check, kind) for check in INTERTWINING_CHECKS
                    for kind in ("passes", "fails", "raises")} | {
        ("three-term", "fails under PA1 and PA2"),
        ("difference", "fails under PA1 and PA2")}, seen


def test_table_readers_match_the_table_route_on_perturbed_arrays():
    """The proportionality, endpoint-values, duality and orthogonality
    checks, which read P's values off T and T* where PA1 and PA2 hold,
    give the lines of the routes that formed P, in their order, or raise
    their exception type, each on a fresh Analysis of each perturbed
    array; every outcome each check has occurs (duality cannot fail).
    Where they and the three-term comparison pass, P is not formed."""
    seen = set()
    unformed = 0
    for label, name, q in perturbed_cases():
        for check, (route, oracle) in TABLE_READERS.items():
            want = lines_or_raised(oracle, Analysis(q))
            assert lines_or_raised(route, Analysis(q)) == want, (label, name, check)
            seen.add((check, "raises" if isinstance(want, type) else "fails" if want
                      else "passes"))
        a = Analysis(q)
        routes = [route for route, _ in TABLE_READERS.values()]
        if all(lines_or_raised(route, a) == [] for route in routes + [three_term]):
            assert "polys" not in vars(a), (label, name)
            unformed += 1
    assert seen == {(check, kind) for check in TABLE_READERS
                    for kind in ("passes", "fails", "raises")} - {("duality", "fails")}, seen
    assert unformed > 0


@pytest.mark.parametrize("label", list(FIELDS))
def test_proportionality_fails_with_the_table_line_where_the_companions_do_not_recur(label):
    """With alpha_i changed under a passing three-term comparison, the
    companions alpha_i fdown_i no longer satisfy the recurrence of the
    f_i, the test on T* fails, and the check prints the line of the route
    on P and Pdown.  No perturbed array reaches that branch: where the
    three-term comparison holds, so does proportionality."""
    rng = random.Random(f"recurrence-routes/alphas/{label}")
    count = 0
    for name, p in sampled_arrays(label):
        if p.d > 8:
            continue
        a, b = Analysis(p), Analysis(p)
        F, i = p.field, rng.randrange(p.d + 1)
        c = next(x for x in iter(lambda: F.random_element(rng, nonzero=True), None)
                 if x != F.one()).value
        a.alphas = b.alphas = [F._mul(x, c) if h == i else x
                               for h, x in enumerate(a.alphas)]
        assert not a.three_term.failures and not _companions_recur(a), (label, name)
        want = scaled_proportionality(b)
        assert want == [f"f_{i} is not alpha_{i} times its reversed companion"]
        assert verify_proportionality(a).failures == want, (label, name)
        count += 1
    assert count > 0


def changed_weights(a, rng):
    """Copies of a's weights with k*_j, k_i (i > 0) or nu times a scalar c
    other than 0 and 1, so that no weight becomes zero."""
    data, F = a.ortho, a.p.field
    k, kstar, nu = data.values
    c = next(x for x in iter(lambda: F.random_element(rng, nonzero=True), None)
             if x != F.one()).value
    j, i = rng.randrange(a.p.d + 1), 1 + rng.randrange(a.p.d)
    times_c = lambda w, h: tuple(F._mul(x, c) if r == h else x for r, x in enumerate(w))
    yield f"k*_{j} c", replace(data, values=(k, times_c(kstar, j), nu))
    yield f"k_{i} c", replace(data, values=(times_c(k, i), kstar, nu))
    yield "nu c", replace(data, values=(k, kstar, F._mul(nu, c)))


def kept_first_row_table(a, rng):
    """P with two entries of one column l > 0 moved so that sum_r k*_r
    P[r][l], the first row of the Gram, is kept: the three-term comparison
    fails, and the rest of the Gram moves unless the moves cancel."""
    P, kstar = a.polys.P, a.ortho.kstar
    F, n = P.field, P.n
    l = 1 + rng.randrange(n - 1)
    r, s = rng.sample(range(n), 2)
    x = F.one()
    rows = [list(row) for row in P.rows]
    rows[r][l] = rows[r][l] + x * kstar[r].inverse()
    rows[s][l] = rows[s][l] - x * kstar[s].inverse()
    return PolyTable(P=SquareMatrix.from_rows(F, rows), Pdown=a.polys.Pdown)


@pytest.mark.parametrize("label", list(FIELDS))
def test_rows_fail_with_the_dense_lines_where_the_route_applies(label):
    """With the weights changed under a passing three-term comparison, the
    route applies and finds the rows failing, and the check prints the
    dense Gram's lines.  With a table changed so that the Gram's first row
    is kept, the three-term comparison fails and the dense Gram decides."""
    rng = random.Random(f"recurrence-routes/weights/{label}")
    failed = kept = 0
    for name, p in sampled_arrays(label):
        if p.d > 8:
            continue
        for change, data in changed_weights(Analysis(p), rng):
            a, b = Analysis(p), Analysis(p)
            a.ortho = b.ortho = data
            assert not a.three_term.failures
            want = dense_orthogonality(b).failures
            assert not _rows_hold(a) and want, (label, name, change)
            assert verify_orthogonality(a).failures == want, (label, name, change)
            failed += 1
        a, b = Analysis(p), Analysis(p)
        a.polys = b.polys = kept_first_row_table(a, rng)
        a.three_term = table_three_term(a)
        assert a.three_term.failures, (label, name)
        want = dense_orthogonality(b).failures
        assert verify_orthogonality(a).failures == want, (label, name)
        kept += bool(want)
    assert failed > 0 and kept > 0


def test_passing_path_costs_in_d(monkeypatch):
    """Over GF(1000003) and over Q, with the shared objects built, no check
    on the passing path makes a kernel call or forms P, and the products
    of each of these sites grow by at most 4.5 per doubling of d:
    - the three-term and difference comparisons and the conjugation check,
      each one intertwining test with a bidiagonal right side on T*, T or
      G (at most 5 n(n + 1) / 2 products, band dots on a triangular factor);
    - proportionality, one more such test on T*, with 4d products to scale
      the bands of J;
    - endpoint-values, row d of T times D^-1 T*^t (n^2 / 2 products);
    - the row route of orthogonality, which reads the Gram's first row off
      the difference equation (O(d) products), and the whole check;
    - build (d(d + 1)/2 products for G).
    Over Q a product is a `_mul` or a pair of int terms of the kernel or
    of the intertwining test, as `count_multiplications` counts them."""
    sites = {"orthogonality": lambda a: verify_orthogonality(a).ok(),
             "row route": _rows_hold,
             "three-term": lambda a: not three_term_comparison(a).failures,
             "difference": lambda a: not difference_comparison(a).failures,
             "proportionality": lambda a: verify_proportionality(a).ok(),
             "endpoint-values": lambda a: endpoint_values(a).ok(),
             "conjugation": lambda a: verify_conjugation(a).ok(),
             "build": lambda a: build(a).G.n == a.p.d + 1}
    for F in (prime_field(1000003), rational_field()):
        kernel, calls, products = type(F)._matmul, [], {name: [] for name in sites}
        monkeypatch.setattr(type(F), "_matmul",
                            lambda G, x, y, kernel=kernel: calls.append(x) or kernel(G, x, y))
        for d in (8, 16, 32):
            fp = sample_params("q-racah", d, F, random.Random(f"cost-in-d/{d}"))
            a = Analysis(generate(fp, F))
            a.matrices, a.ortho, a.alphas, a.three_term, a.difference
            calls.clear()
            assert verify_leonard_conditions(a).ok()
            for name, site in sites.items():
                passed = []
                products[name].append(count_multiplications(lambda: passed.append(site(a))))
                assert passed == [True], (F, d, name)
            assert calls == [] and "polys" not in vars(a), (F, d)
        for name, counts in products.items():
            assert counts[0] > 0 and all(y <= 4.5 * x for x, y in zip(counts, counts[1:])), (
                F, name, counts)


def ci_perturbations(d):
    """The CI q-Racah array over Q at diameter d, then copies with phi_k + 1
    and varphi_k + 1 at k = 1, d // 2 + 1 and d, and with theta*_j + 1 and
    theta_j + 1 at j = 0, d // 2 and d."""
    p = ci_q_racah(d)
    one = p.field.one()

    def bumped(values, k):
        return tuple(x + one if i == k else x for i, x in enumerate(values))

    yield "as generated", p
    for k in sorted({0, d // 2, d - 1}):
        yield f"phi_{k + 1} + 1", replace(p, phi=bumped(p.phi, k))
        yield f"varphi_{k + 1} + 1", replace(p, varphi=bumped(p.varphi, k))
    for j in sorted({0, d // 2, d}):
        yield f"theta*_{j} + 1", replace(p, theta_star=bumped(p.theta_star, j))
    for j in sorted({0, d // 2, d}):
        yield f"theta_{j} + 1", replace(p, theta=bumped(p.theta, j))


def g_or_raised(route, a):
    """The payload rows of route(a), or the type and message of the
    exception raised."""
    try:
        return route(a).values
    except Exception as e:  # the comparison is over exceptions
        return type(e), str(e)


if __name__ == "__main__":
    d = int(sys.argv[1])
    arrays = lines = 0
    for name, q in ci_perturbations(d):
        a = Analysis(q)
        got = g_or_raised(lambda a: build(a).G, a)
        assert got == g_or_raised(dense_transition_matrix, a), (name, "G")
        for check, (route, oracle) in {**INTERTWINING_CHECKS, **TABLE_READERS}.items():
            got = lines_or_raised(route, Analysis(q))
            assert got == lines_or_raised(oracle, a), (name, check)
            lines += len(got) if isinstance(got, list) else 0
        arrays += 1
    print(f"CI q-racah d={d} and {arrays - 1} perturbations: build's G is that "
          f"of T^-1 Z Tdown, the three-term, difference and conjugation "
          f"lines are those of the dense products, and the proportionality, "
          f"endpoint-values, duality and orthogonality lines those of the "
          f"routes that form P ({lines} lines)")
