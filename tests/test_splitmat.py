"""Exact matrices: bidiagonal pair, transition matrices, idempotents."""

import itertools
import random
from dataclasses import replace
from math import gcd

import pytest

from leonard import (
    Analysis,
    BaseNotApplicable,
    RepeatedEigenvalue,
    SingularMatrix,
    SplitMatrixSet,
    SquareMatrix,
    base_candidates,
    build,
    duality_check,
    endpoint_values,
    extension_field,
    generate,
    list_families,
    make_array,
    prime_field,
    primitive_idempotents,
    s_matrix,
    sample_params,
    verify_alt_formulas,
    verify_conjugation,
    verify_difference,
    verify_leonard_conditions,
    verify_nu_sums,
    verify_orthogonality,
    verify_proportionality,
    verify_three_term,
    verify_transition_matrix,
)
from leonard.families import Q_FAMILIES
from leonard.fields import _find_irreducible
from leonard.report import CheckReport
from leonard.splitmat import difference_products, divided_differences, pair_products
from conftest import (Q, count_multiplications, dense_mul, dense_transition_matrix, qarr,
                      random_array)


# The forward substitution that inverted T, U and V^t before T^-1 had a
# closed form: the oracle for divided_differences, and the Ginv oracle below.
def _lower_inverse(m: SquareMatrix) -> SquareMatrix:
    # Forward substitution column by column; diagonal entries must be units.
    n = m.n
    zero = m.field.zero()
    inv = [m.rows[i][i].inverse() for i in range(n)]
    out = [[zero] * n for _ in range(n)]
    for j in range(n):
        out[j][j] = inv[j]
        for i in range(j + 1, n):
            acc = zero
            for k in range(j, i):
                acc = acc + m.rows[i][k] * out[k][j]
            out[i][j] = -acc * inv[i]
    return SquareMatrix.from_rows(m.field, out)


PRODUCT_FIELDS = {
    "Q": Q,
    "GF(7)": prime_field(7),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
    "GF(3^7)": extension_field(3, 7, _find_irreducible(3, 7)),  # above the table cap
}


def mat(rows):
    return SquareMatrix.from_rows(Q, [[Q.from_int(v) for v in row]
                                      for row in rows])


def test_matrix_algebra_basics():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b == mat([[1, 3], [4, 4]])
    assert a - a == mat([[0, 0], [0, 0]])
    assert a * b == mat([[2, 1], [4, 3]])
    assert a.transpose() == mat([[1, 3], [2, 4]])
    assert a.scale(Q.from_int(2)) == mat([[2, 4], [6, 8]])
    assert a.rows[0][1] == Q.from_int(2)


def test_matrix_inverse_exact():
    a = mat([[1, 2], [3, 4]])
    assert a * a.inverse() == SquareMatrix.identity(Q, 2)
    # needs a row swap to find the pivot
    b = mat([[0, 1], [1, 0]])
    assert b.inverse() == b
    with pytest.raises(SingularMatrix):
        mat([[1, 2], [2, 4]]).inverse()


def shaped_matrices(F, n, rng, entry=None):
    """One n x n matrix of each zero pattern: those the split-basis checks
    multiply, a dense one, and one with a zero row and a zero column.  The
    entries inside a pattern are entry(), by default random and nonzero."""
    if entry is None:
        entry = lambda: F.random_element(rng, nonzero=True)

    def pattern(keep):
        return SquareMatrix.build(F, n, lambda i, j: entry() if keep(i, j) else F.zero())

    perm = list(range(n))
    rng.shuffle(perm)
    return {
        "zero": pattern(lambda i, j: False),
        "identity": SquareMatrix.identity(F, n),
        "diagonal": pattern(lambda i, j: i == j),
        "permutation": SquareMatrix.build(
            F, n, lambda i, j: F.one() if perm[i] == j else F.zero()),
        "lower bidiagonal": pattern(lambda i, j: 0 <= i - j <= 1),
        "upper bidiagonal": pattern(lambda i, j: 0 <= j - i <= 1),
        "lower triangular": pattern(lambda i, j: j <= i),
        "upper triangular": pattern(lambda i, j: i <= j),
        "dense": pattern(lambda i, j: True),
        "zero row and column": pattern(lambda i, j: i != 1 and j != n - 2),
    }


# the kernel's fields besides PRODUCT_FIELDS: both prime-field extremes,
# tables at 2^4 and the written-out product above the cap at 3^8
KERNEL_FIELDS = {
    "GF(2)": prime_field(2),
    "GF(1000003)": prime_field(1000003),
    "GF(2^4)": extension_field(2, 4, (1, 1, 0, 0, 1)),
    "GF(3^8)": extension_field(3, 8, (2, 0, 1, 0, 0, 0, 0, 0, 1)),
}


def kernel_entry(F, rng, nonzero=False, bits=200):
    """A random entry, zero one time in four unless `nonzero`; over Q with
    numerator and denominator up to 2^bits."""
    if not nonzero and rng.random() < 0.25:
        return F.zero()
    if F.is_finite():
        return F.random_element(rng, nonzero=nonzero)
    return Q.parse(f"{rng.randint(-2**bits, 2**bits)}/{rng.randint(1, 2**bits)}")


def assert_canonical(F, m):
    for row in m.values:
        for x in row:
            if F.spec.kind == "rational":
                n, d = x
                assert d > 0 and gcd(n, d) == 1 and (n != 0 or d == 1), x
            elif F.spec.kind == "prime":
                assert isinstance(x, int) and 0 <= x < F.p, x
            else:
                assert len(x) == F.k and all(0 <= c < F.p for c in x), x


@pytest.mark.parametrize("label", list(PRODUCT_FIELDS | KERNEL_FIELDS))
def test_product_matches_dense_oracle(label):
    """Every pair of shapes, with nonzero entries inside each pattern and
    with kernel_entry's, against the schoolbook product; each result
    payload is canonical and the rows view wraps the same entries."""
    F = (PRODUCT_FIELDS | KERNEL_FIELDS)[label]
    rng = random.Random(f"product/{label}")
    shapes = list(shaped_matrices(F, 5, rng).items()) + list(
        shaped_matrices(F, 6, rng, entry=lambda: kernel_entry(F, rng)).items())
    for x_name, x in shapes:
        for y_name, y in shapes:
            if x.n == y.n:
                got, want = x * y, dense_mul(x, y)
                assert got == want and got.rows == want.rows, (x_name, y_name)
                assert_canonical(F, got)


@pytest.mark.parametrize("label", list(PRODUCT_FIELDS | KERNEL_FIELDS))
def test_kernel_multiplies_each_nonzero_pair_once(label):
    """Every pair of shapes, with entries that are zero one time in four:
    the product makes one multiplication per pair (a_ik, b_kj) of nonzero
    entries and none for a zero term, in each field's kernel."""
    F = (PRODUCT_FIELDS | KERNEL_FIELDS)[label]
    rng = random.Random(f"kernel-cost/{label}")
    shapes = shaped_matrices(F, 6, rng, entry=lambda: kernel_entry(F, rng))
    zero = F.zero_value
    for x_name, x in shapes.items():
        for y_name, y in shapes.items():
            nonzero = [sum(b != zero for b in row) for row in y.values]
            pairs = sum(nonzero[k] for row in x.values
                        for k, a in enumerate(row) if a != zero)
            assert count_multiplications(lambda: x * y) == pairs, (x_name, y_name)


# the fields of the scaling oracles: Q, the smallest and a 61-bit prime
# field, and GF(3^4) by tables
SCALING_FIELDS = {
    "Q": Q,
    "GF(7)": prime_field(7),
    "GF(2^61 - 1)": prime_field(2**61 - 1),
    "GF(3^4)": extension_field(3, 4, _find_irreducible(3, 4)),
}


@pytest.mark.parametrize("label", list(SCALING_FIELDS))
def test_scalings_match_diagonal_products(label):
    """scale_rows(c) = diag(c) M and scale_columns(c) = M diag(c), against
    the kernel and the schoolbook product, on every shape, with entries and
    scalars that are zero one time in four.  A scaling makes the products
    the kernel makes, one per pair of a nonzero entry and a nonzero
    scalar."""
    F = SCALING_FIELDS[label]
    rng = random.Random(f"scalings/{label}")
    entry = lambda: kernel_entry(F, rng)
    for name, m in shaped_matrices(F, 6, rng, entry=entry).items():
        c = [entry().value for _ in range(m.n)]
        diag = SquareMatrix.diagonal(F, c)
        for scaled, product, oracle in (
                (lambda: m.scale_rows(c), lambda: diag * m, dense_mul(diag, m)),
                (lambda: m.scale_columns(c), lambda: m * diag, dense_mul(m, diag))):
            got = scaled()
            assert got == product() == oracle, name
            assert_canonical(F, got)
            assert count_multiplications(scaled) == count_multiplications(product), name


# The builders of the banded matrices before SquareMatrix.diagonal took two
# off-diagonals, kept as its oracles: A* and B* were bidiag_upper, A and B a
# lower bidiagonal of the same form, J recur's tridiagonal and J* its
# transpose.
def bidiag_upper(field, diag, sup):
    zero = field.zero()
    return SquareMatrix.build(field, len(diag), lambda i, j:
                              diag[i] if i == j else sup[i] if j == i + 1 else zero)


def tridiagonal(field, c, a, b):
    # (c_i, a_i, b_i) down column i, in rows i - 1, i and i + 1
    zero = field.zero()
    return SquareMatrix.build(field, len(a), lambda r, i: (
        a[i] if r == i else c[i] if r == i - 1 else b[i] if r == i + 1 else zero))


@pytest.mark.parametrize("label", ["Q", "GF(7)", "GF(4)"])
def test_banded_constructor_matches_the_old_builders(label):
    """diagonal(F, a, below, above) against bidiag_upper and tridiagonal at
    n = 1..7, with entries that are zero one time in four; at n = 1 every
    off-diagonal is empty."""
    F = PRODUCT_FIELDS[label]
    rng = random.Random(f"banded/{label}")
    for n in range(1, 8):
        a, b, c = ([kernel_entry(F, rng) for _ in range(n)] for _ in range(3))
        sup = b[:-1]
        # diagonal takes payloads, the old builders elements
        va, vb, vc, vsup = ([x.value for x in xs] for xs in (a, b, c, sup))
        assert SquareMatrix.diagonal(F, va) == bidiag_upper(F, a, [F.zero()] * (n - 1))
        assert SquareMatrix.diagonal(F, va, above=vsup) == bidiag_upper(F, a, sup)
        assert (SquareMatrix.diagonal(F, va, below=vsup)
                == bidiag_upper(F, a, sup).transpose())
        J = SquareMatrix.diagonal(F, va, below=vb[:-1], above=vc[1:])
        assert J == tridiagonal(F, c, a, b)
        Jstar = SquareMatrix.diagonal(F, va, below=vc[1:], above=vb[:-1])
        assert Jstar == tridiagonal(F, c, a, b).transpose()
        assert_canonical(F, J)


def test_bidiagonal_product_costs_band_multiplications():
    n = 17
    lower = SquareMatrix.build(
        Q, n, lambda i, j: Q.from_int(i + j + 1) if 0 <= i - j <= 1 else Q.zero())
    dense = SquareMatrix.build(Q, n, lambda i, j: Q.from_int(i * n + j + 1))
    # the dense product would make n^3 = 4913
    assert count_multiplications(lambda: lower * dense) <= 2 * n * n


# The fields of the intertwining oracle: Q with entries of up to 1,000 bits,
# GF(7), GF(4) by tables, GF(3^7) above the table cap and GF(2^61 - 1).
INTERTWINING_FIELDS = {
    "Q": Q,
    "GF(7)": PRODUCT_FIELDS["GF(7)"],
    "GF(4)": PRODUCT_FIELDS["GF(4)"],
    "GF(3^7)": PRODUCT_FIELDS["GF(3^7)"],
    "GF(2^61 - 1)": prime_field(2**61 - 1),
}

# which off-diagonals of T are present: (below, above)
BAND_SHAPES = {
    "diagonal": (False, False),
    "lower bidiagonal": (True, False),
    "upper bidiagonal": (False, True),
    "tridiagonal": (True, True),
}


def intertwined(F, n, shape, rng):
    """Bands L and R and a matrix X with L X = X R: T with the off-diagonals
    of `shape`, entries zero one time in four, D diagonal and nonzero, and
    X = D p(T) for a random p of degree n - 1, so that L = D T D^-1 and
    R = T; X has zero entries where T has zero bands or zero entries.  Over
    Q the entries of D have up to 1,000 bits, and so have those of X and
    L."""
    has_below, has_above = BAND_SHAPES[shape]
    entry = lambda: kernel_entry(F, rng, bits=64)
    band = lambda present: [entry() for _ in range(n - 1)] if present else []
    diag, below, above = [entry() for _ in range(n)], band(has_below), band(has_above)
    D = [kernel_entry(F, rng, nonzero=True, bits=1000) for _ in range(n)]
    pay = lambda xs: [x.value for x in xs]
    T = SquareMatrix.diagonal(F, pay(diag), pay(below), pay(above))
    power, X = SquareMatrix.identity(F, n), SquareMatrix.diagonal(F, [F.zero_value] * n)
    for _ in range(n):
        X, power = X + power.scale(entry()), dense_mul(power, T)
    X = SquareMatrix.diagonal(F, pay(D)) * X
    L = (pay(diag), pay([D[i + 1] * x / D[i] for i, x in enumerate(below)]),
         pay([D[i] * x / D[i + 1] for i, x in enumerate(above)]))
    return L, X, (pay(diag), pay(below), pay(above))


def planted(F, L, X, R, rng):
    """The triple, then copies with one mismatch planted: X[r][s] + 1, the
    diagonal of L + 1 at r, and a present off-diagonal of R + 1 at k."""
    n, one = X.n, F.one_value
    bump = lambda xs, k: [F._add(x, one) if i == k else x for i, x in enumerate(xs)]
    r, s = rng.randrange(n), rng.randrange(n)
    yield "as built", L, X, R
    rows = [list(row) for row in X.values]
    rows[r][s] = F._add(rows[r][s], one)
    yield f"X[{r}][{s}] + 1", L, SquareMatrix(F, n, tuple(map(tuple, rows))), R
    yield f"L[{r}][{r}] + 1", (bump(L[0], r), *L[1:]), X, R
    for name, index in (("below", 1), ("above", 2)):
        if R[index]:
            k = rng.randrange(n - 1)
            bands = list(R)
            bands[index] = bump(R[index], k)
            yield f"R {name} {k} + 1", L, X, tuple(bands)


@pytest.mark.parametrize("label", list(INTERTWINING_FIELDS))
def test_intertwining_failures_match_dense_products(label):
    """Field._intertwining_failures against the entries where the
    schoolbook products L X and X R differ, in row order, on diagonal,
    bidiagonal and tridiagonal L and R with zero band entries and X with
    zero entries, at n = 1..6, as built (no entry differs) and with one
    mismatch planted; with the roles of the two sides swapped too.  It
    makes one product per pair of a nonzero band entry and a nonzero entry
    of X, and the counter sees each of them."""
    F = INTERTWINING_FIELDS[label]
    rng = random.Random(f"intertwining/{label}")
    zero = F.zero_value
    planted_lines = 0
    for shape in BAND_SHAPES:
        for n in range(1, 7):
            L, X, R = intertwined(F, n, shape, rng)
            # X^t L^t = R^t X^t, the same identity with L and R swapped
            swapped = ((R[0], R[2], R[1]), X.transpose(), (L[0], L[2], L[1]))
            for case in (planted(F, L, X, R, rng), planted(F, *swapped, rng)):
                for name, l, x, r in case:
                    Lm, Rm = (SquareMatrix.diagonal(F, *bands) for bands in (l, r))
                    LX, XR = dense_mul(Lm, x).values, dense_mul(x, Rm).values
                    want = [(i, j) for i in range(n) for j in range(n)
                            if LX[i][j] != XR[i][j]]
                    got = []
                    calls = count_multiplications(
                        lambda: got.extend(F._intertwining_failures(l, x.values, r)))
                    assert got == want, (shape, n, name)
                    if name == "as built":
                        assert want == [], (shape, n)
                    planted_lines += bool(want)
                    nonzero = lambda m: [sum(v != zero for v in row) for row in m.values]
                    x_rows, r_rows = nonzero(x), nonzero(Rm)
                    pairs = (sum(x_rows[k] for row in Lm.values
                                 for k, v in enumerate(row) if v != zero)
                             + sum(r_rows[k] for row in x.values
                                   for k, v in enumerate(row) if v != zero))
                    assert calls == pairs, (shape, n, name)
    assert planted_lines > 0


def test_conjugation_check_costs_band_multiplications():
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    a = Analysis(generate(fp, Q))
    a.matrices
    reports = []
    calls = count_multiplications(lambda: reports.append(verify_conjugation(a)))
    assert reports[0].ok(), reports[0].failures
    # 578 of them, int terms of the intertwining test over Q, as many as
    # when A* G and G B* were kernel products; 4,518 when it computed six
    # lines, and the sandwich form with dense products made 85,051
    assert calls <= 578


def test_fix_d1_split_matrices(fix_d1):
    m = build(Analysis(fix_d1))
    expect = {
        "A": [[0, 0], [1, 1]],
        "B": [[1, 0], [1, 0]],
        "Astar": [[0, 1], [0, 1]],
        "Bstar": [[0, 2], [0, 1]],
        "T": [[1, 0], [1, 1]],
        "Tstar": [[1, 0], [1, 1]],
        "Tdown": [[1, 0], [1, -1]],
        "D": [[1, 0], [0, 1]],
        "Ddown": [[1, 0], [0, 2]],
        "Z": [[0, 1], [1, 0]],
        "H": [[0, 0], [0, 1]],
        "Hstar": [[0, 0], [0, 1]],
        "G": [[1, -1], [0, 1]],
    }
    for name, rows in expect.items():
        assert getattr(m, name) == mat(rows), name


def product_formula(values):
    """Entry (i, j) as the fresh product of values[i] - values[h] over h < j,
    the way build once computed T, T* and Tdown: the oracle for its running
    products."""
    F = values[0].field

    def prod(i, j):
        acc = F.one()
        for h in range(j):
            acc = acc * (values[i] - values[h])
        return acc

    return SquareMatrix.build(F, len(values), prod)


def test_transition_matrices_match_product_formula(fix_d1, kraw2, kraw3, qrac3,
                                                   orphan3):
    rng = random.Random("transition-products")
    arrays = [fix_d1, kraw2, kraw3, qrac3, orphan3]
    for F in PRODUCT_FIELDS.values():
        arrays += [random_array(F, d, rng) for d in (1, 3, 6)
                   if not F.is_finite() or d < F.order()]
    for p in arrays:
        m = build(Analysis(p))
        assert m.T == product_formula(p.theta)
        assert m.Tstar == product_formula(p.theta_star)
        assert m.Tdown == product_formula(p.theta[::-1])


def test_build_takes_running_products():
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    a = Analysis(generate(fp, Q))
    # T, T* and Tdown as running products, n(n-1)/2 each, and as many for
    # the products above each theta*_i
    assert count_multiplications(lambda: a.pair) <= 4 * 17 * 16 // 2
    # 168 of them once the pair's T, T*, Tdown and one-sided products are
    # formed: G's recurrence takes d(d + 1)/2 = 136 and the prefix products
    # of varphi and phi 32.  1,970 when G was T^-1 Z Tdown, with T^-1 in
    # closed form; 2,514 with the pair formed inside the count, 2,650 when
    # build formed T, T* and Tdown itself, 2,803 when G took two products,
    # 3,330 when T^-1 was a forward substitution, and 9,858 with a fresh
    # product per entry of T, T* and Tdown
    assert count_multiplications(lambda: build(a)) <= 168


G_FIELDS = {**PRODUCT_FIELDS, "GF(2^61 - 1)": prime_field(2**61 - 1)}


def g_cases(label):
    """The sampled arrays of every family at d = 1..6, and seeded theta
    sequences without repeats (with theta*, varphi and phi to match) that
    are not arrays, at d = 0..8 as far as the field has distinct values."""
    F = G_FIELDS[label]
    rng = random.Random(f"g-recurrence/{label}")
    for family in list_families():
        for d in range(1, 7):
            fp = sample_params(family, d, F, rng)
            if fp is not None:
                yield f"{family} d={d}", generate(fp, F)
    for d in range(9):
        if not F.is_finite() or d < F.order():
            for _ in range(3):
                yield f"random d={d}", random_array(F, d, rng)


@pytest.mark.parametrize("label", list(G_FIELDS))
def test_build_g_is_the_dense_route(label):
    """build's G, read off A G = G B column by column, has the payloads of
    T^-1 Z Tdown, the route it replaced; it is unit upper triangular and
    A G = G B holds by schoolbook products."""
    F = G_FIELDS[label]
    zero, one = F.zero_value, F.one_value
    arrays = 0
    for name, p in g_cases(label):
        a = Analysis(p)
        m = build(a)
        assert m.G == dense_transition_matrix(a), (label, name)
        assert all(x == (one if i == j else zero)
                   for i, row in enumerate(m.G.values) for j, x in enumerate(row) if i >= j)
        assert dense_mul(m.A, m.G) == dense_mul(m.G, m.B), (label, name)
        assert_canonical(F, m.G)
        arrays += "random" not in name
    assert arrays > 0, label


def repeated_theta(p):
    """Copies of p with theta_1 = theta_0 and with theta_d = theta_0."""
    th = p.theta
    yield "theta_1 = theta_0", replace(p, theta=(th[0], th[0]) + th[2:])
    yield "theta_d = theta_0", replace(p, theta=th[:-1] + (th[0],))


@pytest.mark.parametrize("label", list(G_FIELDS))
def test_build_raises_the_fields_zero_division_on_a_repeated_theta(label):
    F = G_FIELDS[label]
    rng = random.Random(f"g-repeated/{label}")
    for d in (1, 2, 3):
        for change, q in repeated_theta(random_array(F, d, rng)):
            with pytest.raises(ZeroDivisionError) as raised:
                build(Analysis(q))
            assert str(raised.value) == f"division by zero in {F}", (label, d, change)


SCOREBOARD_CHECKS = (verify_conjugation, verify_leonard_conditions, verify_proportionality,
                     endpoint_values, duality_check, verify_orthogonality, verify_nu_sums,
                     verify_three_term, verify_difference, verify_alt_formulas,
                     verify_transition_matrix)


def dense_build(a):
    """build with G from the dense route, T^-1 Z Tdown."""
    return SplitMatrixSet(p=a.p, splits=a.splits, pair=a.pair, G=dense_transition_matrix(a))


def outcome(check, p):
    """The failure lines of check on a fresh Analysis, or the type and
    message of the exception it raises."""
    try:
        return check(Analysis(p)).failures
    except Exception as e:  # the comparison is over exceptions
        return type(e), str(e)


def test_checks_keep_their_lines_and_exceptions_with_the_recurrence_g(monkeypatch):
    """Each scoreboard check gives the same lines, or raises the same
    exception type with the same message, with build's G as with the dense
    route's, on sampled arrays, on copies with theta_j + 1 or a repeated
    theta, and on 20 seeded GF(4) sequences of d = 1."""
    import leonard.analysis

    cases = []
    for label in ("Q", "GF(7)", "GF(4)"):
        rng = random.Random(f"g-checks/{label}")
        for name, p in itertools.islice(g_cases(label), 0, None, 4):
            j = rng.randrange(p.d + 1)
            bumped = tuple(x + p.field.one() if i == j else x for i, x in enumerate(p.theta))
            cases += [p, replace(p, theta=bumped)]
            cases += [q for _, q in repeated_theta(p)] if p.d > 0 else []
    F = G_FIELDS["GF(4)"]
    cases += [random_array(F, 1, random.Random(f"g-checks/gf4/{i}")) for i in range(20)]
    outcomes = {}
    for route in (build, dense_build):
        monkeypatch.setattr(leonard.analysis, "build", route)
        outcomes[route] = [outcome(check, p) for p in cases for check in SCOREBOARD_CHECKS]
    assert outcomes[build] == outcomes[dense_build]
    kinds = {"raises" if isinstance(x, tuple) else "fails" if x else "passes"
             for x in outcomes[build]}
    assert kinds == {"raises", "fails", "passes"}
    assert (ZeroDivisionError, f"division by zero in {Q}") in outcomes[build]


def distinct_entries(F, n, rng):
    """n distinct kernel_entry values: over Q with numerators and
    denominators up to 2^200."""
    values = []
    while len(values) < n:
        x = kernel_entry(F, rng)
        if x not in values:
            values.append(x)
    return values


@pytest.mark.parametrize("label", ["Q", *KERNEL_FIELDS])
def test_divided_differences_invert_difference_products(label):
    """T^-1 in closed form is the inverse of T on both sides and equals the
    forward substitution; its payloads are canonical, and a repeated value
    raises ZeroDivisionError, as the substitution did."""
    F = (PRODUCT_FIELDS | KERNEL_FIELDS)[label]
    rng = random.Random(f"divided-differences/{label}")
    for n in (1, 2, 5, 9):
        if F.is_finite() and n > F.order():
            continue
        values = distinct_entries(F, n, rng)
        sides = pair_products(F, values, values).sides
        T, Tinv = difference_products(F, values), divided_differences(F, values, *sides)
        ident = SquareMatrix.identity(F, n)
        assert T * Tinv == ident and Tinv * T == ident, n
        assert Tinv == _lower_inverse(T), n
        assert_canonical(F, Tinv)
        if n > 1:
            repeated = values[:-1] + [values[rng.randrange(n - 1)]]
            sides = pair_products(F, repeated, repeated).sides
            with pytest.raises(ZeroDivisionError):
                divided_differences(F, repeated, *sides)
            with pytest.raises(ZeroDivisionError):
                _lower_inverse(difference_products(F, repeated))


def test_conjugation_moves_one_matrix_pair_to_other(qrac3):
    m = build(Analysis(qrac3))
    gi = m.G.inverse()
    assert gi * m.A * m.G == m.B
    assert gi * m.Astar * m.G == m.Bstar


def test_conjugation_report_passes_on_fixtures(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        rep = verify_conjugation(Analysis(p))
        assert rep.ok(), rep.failures


def test_conjugation_names_the_first_zero_of_d(qrac3):
    # the message Gauss-Jordan gives on D: varphi_2 = 0 makes D_2 the first
    # zero on its diagonal
    p = replace(qrac3, varphi=(qrac3.varphi[0], Q.zero()) + qrac3.varphi[2:])
    a = Analysis(p)
    with pytest.raises(SingularMatrix) as gauss_jordan:
        a.matrices.D.inverse()
    with pytest.raises(SingularMatrix) as check:
        verify_conjugation(a)
    assert str(check.value) == str(gauss_jordan.value) == "no pivot in column 2"


def _diagonal_inverse(m):
    """Inverse of a diagonal matrix, entry by entry; raises SingularMatrix
    at the first zero on the diagonal, as Gauss-Jordan would."""
    inv = []
    for i, row in enumerate(m.rows):
        if not row[i]:
            raise SingularMatrix(f"no pivot in column {i}")
        inv.append(row[i].inverse().value)
    return SquareMatrix.diagonal(m.field, inv)


def ginv_oracle(m):
    """Ginv = Tdown^-1 Z T, with Tdown^-1 by forward substitution."""
    return _lower_inverse(m.Tdown) * m.Z * m.T


def conjugation_via_ginv(a):
    """verify_conjugation as it was before it checked G Ginv = I as
    T G = Z Tdown: it built Ginv = Tdown^-1 Z T for that one check, and
    computed every line."""
    m = a.matrices
    report = CheckReport("conjugation")
    Ginv = ginv_oracle(m)
    ident = SquareMatrix.identity(a.p.field, m.A.n)
    checks = [
        ("G * Ginv = I", m.G * Ginv, ident),
        ("Ginv * A * G = B", m.A * m.G, m.G * m.B),
        ("Ginv * A* * G = B*", m.Astar * m.G, m.G * m.Bstar),
        ("T A = H T", m.T * m.A, m.H * m.T),
        ("Z Tdown B = H Z Tdown", m.Z * m.Tdown * m.B, m.H * m.Z * m.Tdown),
        ("D A* D^-1 T*^t = T*^t H*",
         m.D * m.Astar * _diagonal_inverse(m.D) * m.Tstar.transpose(),
         m.Tstar.transpose() * m.Hstar),
    ]
    for label, got, want in checks:
        if got != want:
            report.add(label + " violated")
    return report


def test_build_g_inverts_against_ginv_oracle(fix_d1, kraw2, kraw3, qrac3, orphan3):
    """build's G satisfies T G = Z Tdown and G Ginv = I for the Ginv of the
    oracle on each fixture.  On every copy whose G has one entry changed
    the oracle flags G * Ginv = I, and verify_conjugation, which computes
    only the A* line, reports exactly the oracle's A* line."""
    line = "Ginv * A* * G = B* violated"
    for p in (fix_d1, kraw2, kraw3, qrac3, orphan3):
        a = Analysis(p)
        m, one = a.matrices, p.field.one()
        assert m.T * m.G == m.Z * m.Tdown
        assert m.G * ginv_oracle(m) == SquareMatrix.identity(p.field, m.G.n)
        assert verify_conjugation(a).failures == conjugation_via_ginv(a).failures == []
        for i in range(m.G.n):
            for j in range(m.G.n):
                rows = [list(row) for row in m.G.rows]
                rows[i][j] = rows[i][j] + one
                changed = Analysis(p)
                changed.matrices = replace(m, G=SquareMatrix.from_rows(p.field, rows))
                want = conjugation_via_ginv(changed).failures
                assert "G * Ginv = I violated" in want, (p, i, j)
                got = verify_conjugation(changed).failures
                assert got == [x for x in want if x == line], (p, i, j)


def test_conjugation_check_builds_no_inverse():
    fp = sample_params("q-racah", 10, Q, random.Random("conjugation-cost"))
    a = Analysis(generate(fp, Q))
    a.matrices
    # 242 of them, 1,679 when it computed six lines; the Ginv oracle makes
    # 2,317, 847 of them to build Ginv
    assert count_multiplications(lambda: conjugation_via_ginv(a)) == 2_317
    assert count_multiplications(lambda: verify_conjugation(a)) <= 242


def test_conjugation_detects_broken_varphi(kraw3):
    broken = make_array(
        kraw3.field, kraw3.theta, kraw3.theta_star,
        (Q.from_int(3),) + kraw3.varphi[1:], kraw3.phi)
    rep = verify_conjugation(Analysis(broken))
    assert not rep.ok()


def test_leonard_conditions_on_fixtures(fix_d1, kraw3, qrac3, orphan3):
    for p in (fix_d1, kraw3, qrac3, orphan3):
        rep = verify_leonard_conditions(Analysis(p))
        assert rep.ok(), rep.failures


def test_leonard_conditions_build_no_inverse_matrix():
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    a = Analysis(generate(fp, Q))
    a.matrices, a.three_term, a.difference
    reports = []
    calls = count_multiplications(lambda: reports.append(verify_leonard_conditions(a)))
    assert reports[0].ok(), reports[0].failures
    # none: the blocks are J^t and J* of the comparisons.  3,005 when the
    # passing path formed the two blocks by products, 3,396 when E* A E*
    # came from V and V^-1 recurrences, 4,280 when it checked A U = U H and
    # A* V = V H* too, 4,552 when U and U^-1 were recurrences too, and 6,048
    # when U^-1 and V^-t were forward substitutions
    assert calls == 0


def test_leonard_conditions_dense_route_costs_its_blocks():
    """With phi_1 moved, the three-term comparison fails while the triple
    (theta, theta*, varphi) is still a Leonard pair: the blocks are formed
    by products, at the cost they had on the passing path.  T^-1, which
    build no longer forms, is read first, so only the two block products
    are counted."""
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    p = generate(fp, Q)
    a = Analysis(replace(p, phi=(p.phi[0] + Q.one(),) + p.phi[1:]))
    a.matrices.Tinv, a.three_term, a.difference
    assert a.three_term.failures
    reports = []
    calls = count_multiplications(lambda: reports.append(verify_leonard_conditions(a)))
    assert reports[0].ok(), reports[0].failures
    # 3,005, as on the passing path before the blocks were read off the
    # comparisons
    assert calls <= 3_005


def test_leonard_conditions_fail_off_tridiagonal(kraw3):
    # a vanishing varphi entry decouples the flag and kills the
    # required nonzero blocks next to the diagonal
    broken = make_array(kraw3.field, kraw3.theta, kraw3.theta_star,
                        (Q.zero(),) + kraw3.varphi[1:], kraw3.phi)
    rep = verify_leonard_conditions(Analysis(broken))
    assert not rep.ok()
    assert any("nonzero" in f for f in rep.failures)


def test_primitive_idempotents_resolve_identity(kraw3):
    m = build(Analysis(kraw3))
    es = primitive_idempotents(m.A, list(kraw3.theta))
    n = kraw3.d + 1
    total = es[0]
    for e in es[1:]:
        total = total + e
    assert total == SquareMatrix.identity(Q, n)
    for i, e in enumerate(es):
        for j, f in enumerate(es):
            assert e * f == (e if i == j else SquareMatrix.build(
                Q, n, lambda r, c: Q.zero()))


def test_primitive_idempotents_reject_repeats():
    a = mat([[1, 0], [0, 1]])
    with pytest.raises(RepeatedEigenvalue):
        primitive_idempotents(a, [Q.one(), Q.one()])


def test_s_matrix_matches_g_for_qrac3(qrac3):
    m = build(Analysis(qrac3))
    for q in (Q.from_int(2), Q.parse("1/2")):
        S = s_matrix(qrac3, q)
        alpha = S.rows[0][0].inverse()
        assert m.G == S.scale(alpha)


def test_s_matrix_low_d_is_base_independent(fix_d1, kraw2):
    for p, q_texts in ((fix_d1, ("2", "3", "-5", "7/3")),
                       (kraw2, ("2", "-2", "1/3"))):
        tables = {s_matrix(p, Q.parse(t)) for t in q_texts}
        assert len(tables) == 1
        S = tables.pop()
        alpha = S.rows[0][0].inverse()
        assert build(Analysis(p)).G == S.scale(alpha)


def test_s_matrix_rejects_degenerate_base(kraw3):
    for text in ("0", "1", "-1"):
        with pytest.raises(BaseNotApplicable):
            s_matrix(kraw3, Q.parse(text))


def test_transition_matrix_lets_the_root_of_unity_refusal_through():
    """GF(7), d = 3, with beta + 1 = 0: the base is 2, and 2^3 = 1, so
    s_matrix refuses it.  beta + 1 = 0 forces theta_3 = theta_0 at d = 3,
    so the array fails PA1 and the scoreboard never gets here; no array
    that passes PA1 and PA5 has such a base, so the check has no skip for
    it and the refusal propagates."""
    F = prime_field(7)
    el = lambda *vs: [F.from_int(v) for v in vs]
    p = make_array(F, el(0, 1, 3, 0), el(0, 1, 2, 3), el(1, 1, 1), el(1, 1, 1))
    with pytest.raises(BaseNotApplicable, match="^q is a root of unity of order at most d$"):
        verify_transition_matrix(Analysis(p))


@pytest.mark.parametrize("field", [Q, prime_field(101),
                                   extension_field(3, 2, _find_irreducible(3, 2))],
                         ids=["Q", "GF(101)", "GF(9)"])
def test_s_matrix_corner_is_one_on_case_one_arrays(field):
    """s_matrix's (0, 0) entry is prefix[0] (q; q)_d^2 / (q; q)_d^2 = 1, so
    verify_transition_matrix compares G with it unscaled.  At each
    d = 3..6, every q-family the field hosts, at the base the check takes."""
    for d in range(3, 7):
        checked = 0
        for family in Q_FAMILIES:
            fp = sample_params(family, d, field, random.Random(f"corner|{family}|{d}"))
            if fp is None:
                continue
            p = generate(fp, field)
            S = s_matrix(p, base_candidates(p).roots[0])
            assert S.rows[0][0] == field.one(), (family, d)
            report = verify_transition_matrix(Analysis(p))
            assert report.ok() and not report.skipped, (family, d, report)
            checked += 1
        assert checked >= 2, (field, d)


def test_s_matrix_rejects_wrong_ratio(qrac3):
    # beta + 1 = 7/2 here, but q = 3 gives 3 + 1/3 + 1
    with pytest.raises(BaseNotApplicable):
        s_matrix(qrac3, Q.from_int(3))


def test_g_unit_corner_enforced(fix_d1):
    m = build(Analysis(fix_d1))
    assert m.G.rows[0][0] == Q.one()
