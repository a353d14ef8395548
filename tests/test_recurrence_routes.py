"""The recurrence routes of verify_leonard_conditions and
verify_orthogonality against the dense products they replace.

Where every varphi_i and phi_i is nonzero and the three-term and difference
comparisons of `Analysis` hold, verify_leonard_conditions takes its blocks
to be K = T* A*' T*^-1 = J^t and T A* T^-1 = J* (LS99's dual recurrence),
and where the three-term comparison holds and b_i != 0 for i < d,
verify_orthogonality settles the row Gram P^t K* P = diag(nu / k_i) from J
and its first row (Favard's argument).  The dense products stay as the
fallback, `dense_leonard_blocks` and `_gram_failures`, and are the oracles
here:

- the two identities hold, and the row route agrees with the dense Gram,
  on sampled arrays over Q, GF(101), GF(3^4) and GF(2^4) at d <= 12, and
  on every array of GF(4) at d <= 3;
- on arrays where a comparison fails, a varphi_i or phi_i is zero or a
  theta* repeats, and on every PA1-PA2 sequence of GF(4) at d = 1, both
  checks report the lines of the dense route, or raise its exception type;
- weights or tables changed under an Analysis, where the row route applies
  but the rows fail, give the dense Gram's lines;
- on the passing path over GF(1000003) at d = 8, 16 and 32, the Leonard
  check makes no kernel call, and the orthogonality check's products grow
  by at most 4.5 per doubling of d, where the dense Gram's grow by about 8.
"""

import itertools
import random
from dataclasses import replace

import pytest

from leonard import (
    Analysis,
    CheckReport,
    enumerate_arrays,
    extension_field,
    generate,
    list_families,
    make_array,
    prime_field,
    rational_field,
    sample_params,
    verify_leonard_conditions,
    verify_orthogonality,
)
from leonard.fields import _find_irreducible
from leonard.ortho import _gram_failures, _rows_hold
from leonard.polys import PolyTable
from leonard.splitmat import SquareMatrix, _require_distinct, dense_leonard_blocks
from conftest import count_multiplications

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
    P, data = a.polys.P, a.ortho
    report = CheckReport("orthogonality")
    _gram_failures(report, "row", P.transpose(), data.kstar, data.k, data.nu)
    if report.failures or not data.nu:
        _gram_failures(report, "column", P, data.k, data.kstar, data.nu)
    return report


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
    assert K == a.three_term.J.transpose(), name
    assert block == a.difference.J, name
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


def changed_weights(a, rng):
    """Copies of a's weights with k*_j, k_i (i > 0) or nu times a scalar c
    other than 0 and 1, so that no weight becomes zero."""
    data, F = a.ortho, a.p.field
    c = next(x for x in iter(lambda: F.random_element(rng, nonzero=True), None)
             if x != F.one())
    j, i = rng.randrange(a.p.d + 1), 1 + rng.randrange(a.p.d)
    yield f"k*_{j} c", replace(data, kstar=tuple(
        x * c if r == j else x for r, x in enumerate(data.kstar)))
    yield f"k_{i} c", replace(data, k=tuple(
        x * c if r == i else x for r, x in enumerate(data.k)))
    yield "nu c", replace(data, nu=data.nu * c)


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
        assert a.three_term.failures, (label, name)
        want = dense_orthogonality(b).failures
        assert verify_orthogonality(a).failures == want, (label, name)
        kept += bool(want)
    assert failed > 0 and kept > 0


def test_passing_path_costs_in_d(monkeypatch):
    """Over GF(1000003), with the shared objects built: the Leonard check
    makes no kernel call, and the orthogonality check's products grow by at
    most 4.5 per doubling of d (n^2 + O(n) products for the row route)."""
    F = prime_field(1000003)
    kernel, calls, products = type(F)._matmul, [], []
    monkeypatch.setattr(type(F), "_matmul",
                        lambda G, x, y: calls.append(x) or kernel(G, x, y))
    for d in (8, 16, 32):
        fp = sample_params("q-racah", d, F, random.Random(f"cost-in-d/{d}"))
        a = Analysis(generate(fp, F))
        a.matrices, a.polys, a.ortho, a.three_term, a.difference
        calls.clear()
        assert verify_leonard_conditions(a).ok()
        assert calls == [], d
        reports = []
        products.append(count_multiplications(
            lambda: reports.append(verify_orthogonality(a))))
        assert reports[0].ok(), d
    assert all(y <= 4.5 * x for x, y in zip(products, products[1:])), products
