"""Exact matrix realizations attached to a parameter array.

Everything here works over an arbitrary Field from .fields: square matrices
with exact entries, the bidiagonal pair (A, A*) and its companion pair
(B, B*), the triangular transition machinery connecting them, primitive
idempotents, and the q-binomial transition matrix available when the array
has a usable base in the field.

Every product of differences of eigenvalues is built here, once per
array: `pair_products` holds what depends on (theta, theta*) alone, the
triangular factors T, T* and Tdown (`difference_products`) and the products
below and above each eigenvalue, from which the recurrence coefficients,
the weights and nu are read.  The products below are the diagonals of T
and T*, those above each theta the reversed diagonal of Tdown, and those
above each theta* are `one_sided_products`.  `split_products` holds what depends on (varphi, phi)
alone, the diagonals D_i = varphi_1 .. varphi_i and Ddown_i = phi_1 ..
phi_i (`prefix_products`), from which D, Ddown and their inverses, the
alphas, the weights' ratios and nu's denominator are read.  `build`,
`polys`, `ortho` and `recur` read the one `Analysis.pair` and the one
`Analysis.splits`; `divided_differences` turns the products of theta into
T^-1 in closed form, kept as `Tinv`, and those of theta* into T*^-1, from
which `verify_leonard_conditions` reads the dual array's block.

A SquareMatrix holds the canonical payloads of its entries, row by row.
Every banded matrix comes from one constructor, `SquareMatrix.diagonal`,
given its diagonal and the off-diagonals below and above it: A and B (ones
below), A* and B* (varphi and phi above), the dual A*' of
`verify_leonard_conditions`, and the recurrence matrices J and J* of
`recur`.  The identities checked here are chains of products, each one
call of the field's payload kernel `Field._matmul`, or of `scale_rows` and
`scale_columns` where one factor is diagonal, so no FieldElement is built
along a chain and comparing two results compares payload tuples.  The
scalar chains (the products of differences, their inverses and the closed
form of G) run on payloads too, through the field's `_mul`, `_sub` and
`_checked_inv`, and wrap in elements only what a dataclass keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    BaseNotApplicable,
    IdentityViolated,
    RepeatedEigenvalue,
    SingularMatrix,
)
from .fields import Field, FieldElement
from .parray import ParameterArray, _repeats, base_candidates, beta_plus_one, first_case1_base
from .report import CheckReport

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix with entries in a common field.

    The entries are stored once, as the rows of their canonical payloads
    (`values`), so two matrices over one field are equal exactly when their
    payload rows are.  `rows` is a view that wraps the payloads in
    FieldElements the first time a caller reads entries; products, sums,
    `transpose` and `==` work on the payloads and build no element."""

    field: Field
    n: int
    values: tuple[tuple, ...]

    @cached_property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        F = self.field
        return tuple(tuple([F._elements[v] for v in row]) for row in self.values)

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence[FieldElement]]) -> "SquareMatrix":
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix rows must all have length n")
        return SquareMatrix(field, n, tuple(tuple([x.value for x in row]) for row in rows))

    @staticmethod
    def build(field: Field, n: int, entry: Callable[[int, int], FieldElement]) -> "SquareMatrix":
        return SquareMatrix(field, n, tuple(
            tuple([entry(i, j).value for j in range(n)]) for i in range(n)
        ))

    @staticmethod
    def identity(field: Field, n: int) -> "SquareMatrix":
        return SquareMatrix.diagonal(field, [field.one()] * n)

    @staticmethod
    def diagonal(field: Field, entries: Sequence[FieldElement],
                 below: Sequence[FieldElement] = (),
                 above: Sequence[FieldElement] = ()) -> "SquareMatrix":
        """The banded matrix with diagonal `entries`, below[i] at (i + 1, i)
        and above[i] at (i, i + 1), written as payload rows."""
        n = len(entries)
        rows = [[field.zero_value] * n for _ in range(n)]
        for (r, c), band in (((0, 0), entries), ((1, 0), below), ((0, 1), above)):
            for i, x in enumerate(band):
                rows[i + r][i + c] = x.value
        return SquareMatrix(field, n, tuple(map(tuple, rows)))

    def _require_match(self, other: "SquareMatrix") -> None:
        if self.n != other.n or self.field != other.field:
            raise ValueError("matrix operands require matching shapes and fields")

    def _entrywise(self, op, other: "SquareMatrix") -> "SquareMatrix":
        self._require_match(other)
        return SquareMatrix(self.field, self.n, tuple(
            tuple(map(op, a, b)) for a, b in zip(self.values, other.values)
        ))

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._entrywise(self.field._add, other)

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._entrywise(self.field._sub, other)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        """Matrix product on payloads, by the field's kernel `Field._matmul`.

        One multiplication per pair (a_ik, b_kj) of nonzero entries, after
        2n^2 zero tests: O(n^2) when either factor is diagonal, bidiagonal
        or a permutation, about n^3/6 for two lower (or two upper)
        triangular factors, and n^3 for two dense ones.
        """
        self._require_match(other)
        return SquareMatrix(self.field, self.n,
                            self.field._matmul(self.values, other.values))

    def scale(self, c: FieldElement) -> "SquareMatrix":
        mul, c = self.field._mul, c.value
        return SquareMatrix(self.field, self.n, tuple(
            tuple([mul(x, c) for x in row]) for row in self.values
        ))

    def scale_rows(self, c: Sequence[FieldElement]) -> "SquareMatrix":
        """diag(c) * self, row i times c[i]: one `_mul` per pair of a
        nonzero entry and a nonzero c[i], the pairs the kernel would
        multiply, and no kernel call."""
        F = self.field
        mul, zero = F._mul, F.zero_value
        return SquareMatrix(F, self.n, tuple(
            tuple([mul(x, y) if x != zero and y != zero else zero for x in row])
            for row, y in zip(self.values, [e.value for e in c])))

    def scale_columns(self, c: Sequence[FieldElement]) -> "SquareMatrix":
        """self * diag(c), column j times c[j], as scale_rows takes it."""
        return self.transpose().scale_rows(c).transpose()

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(self.field, self.n, tuple(zip(*self.values)))

    def inverse(self) -> "SquareMatrix":
        """Gauss-Jordan with exact pivoting; raises SingularMatrix."""
        n = self.n
        zero, one = self.field.zero(), self.field.one()
        left = [list(row) for row in self.rows]
        right = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if left[r][col] != zero), None)
            if pivot is None:
                raise SingularMatrix(f"no pivot in column {col}")
            left[col], left[pivot] = left[pivot], left[col]
            right[col], right[pivot] = right[pivot], right[col]
            inv = left[col][col].inverse()
            left[col] = [x * inv for x in left[col]]
            right[col] = [x * inv for x in right[col]]
            for r in range(n):
                if r != col and left[r][col] != zero:
                    f = left[r][col]
                    left[r] = [x - f * y for x, y in zip(left[r], left[col])]
                    right[r] = [x - f * y for x, y in zip(right[r], right[col])]
        return SquareMatrix.from_rows(self.field, right)

    def to_json(self) -> dict:
        return {"n": self.n,
                "rows": [[self.field.format(x) for x in row] for row in self.rows]}


def difference_products(field: Field, values: Sequence[FieldElement]) -> SquareMatrix:
    """The lower-triangular matrix whose entry (i, j) is the product of
    values[i] - values[h] over h < j, taken as a running product along row i.
    Above the diagonal the product holds the factor values[i] - values[i], so
    it is zero."""
    mul, sub, one, zero = field._mul, field._sub, field.one_value, field.zero_value
    vals = [x.value for x in values]
    n = len(vals)
    return SquareMatrix(field, n, tuple(
        (one, *accumulate([sub(x, y) for y in vals[:i]], mul)) + (zero,) * (n - 1 - i)
        for i, x in enumerate(vals)))


def one_sided_products(values: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """above[i], the product of values[i] - values[h] over h > i.  The
    product over h < i, below[i], is the diagonal entry (i, i) of
    difference_products(values)."""
    F = values[0].field
    mul, sub = F._mul, F._sub
    vals = [x.value for x in values]
    return tuple(F._elements[reduce(mul, [sub(x, y) for y in vals[i + 1:]], F.one_value)]
                 for i, x in enumerate(vals))


@dataclass(frozen=True)
class PairProducts:
    """The products of differences of one (theta, theta*) pair: T, T* and
    Tdown, and `sides` = (below, above), with below[i] and above[i] the
    products of theta_i - theta_h over h < i and over h > i (`sides_star`
    likewise for theta*).  below[i] above[i] is the denominator of the i-th
    Lagrange basis polynomial, and 1 / (below[i] above[i]) the barycentric
    weight of theta_i."""

    T: SquareMatrix
    Tstar: SquareMatrix
    Tdown: SquareMatrix
    sides: tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]
    sides_star: tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]


def pair_products(field: Field, theta: Sequence[FieldElement],
                  theta_star: Sequence[FieldElement]) -> PairProducts:
    """T, T* and Tdown, each one run of products.  The products below are
    the diagonals of T and T*, and those above each theta_i the diagonal of
    Tdown read backwards.  Nothing is inverted, so a repeated value gives
    zeros, not an error."""
    T, Tstar, Tdown = (difference_products(field, v)
                       for v in (theta, theta_star, theta[::-1]))
    below, above, below_star = (tuple(field._elements[row[i]] for i, row in enumerate(m.values))
                                for m in (T, Tdown, Tstar))
    return PairProducts(T=T, Tstar=Tstar, Tdown=Tdown, sides=(below, above[::-1]),
                        sides_star=(below_star, one_sided_products(theta_star)))


def divided_differences(field: Field, values: Sequence[FieldElement],
                        below: Sequence[FieldElement],
                        above: Sequence[FieldElement]) -> SquareMatrix:
    """The inverse of difference_products(field, values), in closed form,
    from the products below and above each value (`PairProducts`).

    Entry (k, j), for j <= k, is 1 / the product of values[j] - values[h]
    over h <= k, h != j: row k holds the weights of the divided difference
    over values[0..k].  Each column takes one inverse, the barycentric
    weight of values[j] at its foot (k = n - 1), and climbs by one factor
    values[j] - values[k + 1] a step.  Raises ZeroDivisionError when a
    value repeats."""
    mul, sub, inv = field._mul, field._sub, field._checked_inv
    vals = [x.value for x in values]
    columns = []
    for j, x in enumerate(vals):
        foot = inv(mul(below[j].value, above[j].value))
        column = accumulate([sub(x, y) for y in vals[:j:-1]], mul, initial=foot)
        columns.append((field.zero_value,) * j + tuple(reversed(list(column))))
    return SquareMatrix(field, len(vals), tuple(zip(*columns)))


def prefix_products(field: Field,
                    values: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """1, values[0], values[0] values[1], ..., the product of all values."""
    acc, out = field.one(), [field.one()]
    for v in values:
        acc = acc * v
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class SplitProducts:
    """The diagonals of D and Ddown: D[i] = varphi_1 .. varphi_i and
    Ddown[i] = phi_1 .. phi_i, with D[0] = Ddown[0] = 1.  The scalar that
    relates f_i to its reversed companion is Ddown[i] / D[i]."""

    D: tuple[FieldElement, ...]
    Ddown: tuple[FieldElement, ...]


def split_products(field: Field, varphi: Sequence[FieldElement],
                   phi: Sequence[FieldElement]) -> SplitProducts:
    """D and Ddown, one run of products each.  Nothing is inverted, so a
    zero varphi_i or phi_i gives zeros from there on, not an error."""
    return SplitProducts(D=prefix_products(field, varphi), Ddown=prefix_products(field, phi))


@dataclass(frozen=True)
class SplitMatrixSet:
    """The matrices realizing a parameter array in the split basis."""

    A: SquareMatrix
    B: SquareMatrix
    Astar: SquareMatrix
    Bstar: SquareMatrix
    T: SquareMatrix
    Tinv: SquareMatrix
    Tstar: SquareMatrix
    Tdown: SquareMatrix
    D: SquareMatrix
    Ddown: SquareMatrix
    Z: SquareMatrix
    H: SquareMatrix
    Hstar: SquareMatrix
    G: SquareMatrix


def build(a: Analysis) -> SplitMatrixSet:
    p, pair, splits = a.p, a.pair, a.splits
    F, n = p.field, p.d + 1
    th, ths, ones = p.theta, p.theta_star, [F.one()] * p.d
    A = SquareMatrix.diagonal(F, th, below=ones)
    B = SquareMatrix.diagonal(F, th[::-1], below=ones)
    Astar = SquareMatrix.diagonal(F, ths, above=p.varphi)
    Bstar = SquareMatrix.diagonal(F, ths, above=p.phi)

    D, Ddown = (SquareMatrix.diagonal(F, x) for x in (splits.D, splits.Ddown))
    Z = SquareMatrix(F, n, SquareMatrix.identity(F, n).values[::-1])

    # G = T^-1 Z Tdown, and Z Tdown is Tdown with its rows reversed
    Tinv = divided_differences(F, th, *pair.sides)
    G = Tinv * SquareMatrix(F, n, pair.Tdown.values[::-1])
    if G.values[0][0] != F.one_value:
        raise IdentityViolated("transition matrix is not unit-normalized at (0, 0)")
    return SplitMatrixSet(A=A, B=B, Astar=Astar, Bstar=Bstar, T=pair.T, Tinv=Tinv,
                          Tstar=pair.Tstar, Tdown=pair.Tdown, D=D, Ddown=Ddown, Z=Z,
                          H=SquareMatrix.diagonal(F, th),
                          Hstar=SquareMatrix.diagonal(F, ths), G=G)


def verify_conjugation(a: Analysis) -> CheckReport:
    """Part (ii) of the theorem: G carries (A, A*) to (B, B*).

    Only `Ginv * A* * G = B*` is computed, as A* G = G B*: G = T^-1 Z Tdown
    is invertible by construction (T and Tdown are lower triangular with
    the nonzero diagonal that build requires, Z is a permutation), so the
    two forms hold together.  A* and B* are bidiagonal, so each side costs
    O(n^2) field operations.

    The other labels of the check hold for every distinct theta, theta* and
    nonzero varphi, so they are identities of build, not properties of the
    array, and are not computed (`tests/test_leonard_oracle.py` checks them
    on build):
    - T A = H T, since T[i][j+1] = T[i][j] (theta_i - theta_j);
    - Z Tdown B = H Z Tdown, the same identity for the reversed theta;
    - D A* D^-1 T*^t = T*^t H*, the same identity for T*, since D A* D^-1
      is the transpose of A with theta* in place of theta;
    - G Ginv = I, since `Tinv` is T^-1 in closed form;
    - Ginv A G = B, which follows from the lines above.
    D^-1 is not taken; a zero varphi raises SingularMatrix at the first
    zero D_i, with the message Gauss-Jordan on D gives.
    """
    m = a.matrices
    for i, x in enumerate(a.splits.D):
        if not x:
            raise SingularMatrix(f"no pivot in column {i}")
    report = CheckReport("conjugation")
    if m.Astar * m.G != m.G * m.Bstar:
        report.add("Ginv * A* * G = B* violated")
    return report


def _require_distinct(eigenvalues: Sequence[FieldElement]) -> None:
    for i, j in _repeats(eigenvalues)[:1]:
        raise RepeatedEigenvalue(f"eigenvalue at positions {i} and {j} repeats")


def primitive_idempotents(m: SquareMatrix,
                          eigenvalues: Sequence[FieldElement]) -> list[SquareMatrix]:
    """Lagrange projectors of a multiplicity-free matrix onto its eigenspaces."""
    n = m.n
    if len(eigenvalues) != n:
        raise ValueError("need exactly n eigenvalues")
    _require_distinct(eigenvalues)
    ident = SquareMatrix.identity(m.field, n)
    out = []
    for i, ev in enumerate(eigenvalues):
        acc = ident
        for j, other in enumerate(eigenvalues):
            if j == i:
                continue
            acc = acc * (m - ident.scale(other)).scale((ev - other).inverse())
        out.append(acc)
    return out


def verify_leonard_conditions(a: Analysis) -> CheckReport:
    """Tridiagonal shape of A on the eigenspaces of A*, and of A* on those of A.

    A is lower bidiagonal with distinct diagonal theta, so T A = H T makes
    the columns of T^-1 its eigenvectors: U = T^-1 diag(T) is the unit
    lower-triangular eigenvector matrix, and U^-1 = diag(T)^-1 T.  Each
    primitive idempotent is rank one, E_i = U e_i e_i^t U^-1, so the block
    E_i A* E_j vanishes exactly when the scalar (U^-1 A* U)_ij does, and
    that scalar is (T A* T^-1)_ij times the nonzero T_jj / T_ii.  So the
    E A* E block is read from T A* T^-1, with the T^-1 that build keeps.

    The E* A E* block is the same block of the dual array, which swaps
    theta with theta* and keeps varphi: K = T* A*' T*^-1, with A*' upper
    bidiagonal with diagonal theta and superdiagonal varphi, and T*^-1
    the closed form `divided_differences` of theta*.  A* has the unit
    upper-triangular eigenvector matrix V = D^-1 T*^t diag(D_j / below*_j),
    so for i <= j

        (V^-1 A V)_ij = varphi_{i+1} .. varphi_j (below*_i / below*_j) K[j][i],

    an identity of polynomials in varphi that holds at a zero varphi too;
    below the diagonal V^-1 A V is 1 at (i + 1, i) and 0 further down, so
    those entries cannot fail.  Row i of the block is therefore K[j][i]
    for j = i + 1, i + 2, .. up to the first zero varphi_j, and zero from
    there on, up to nonzero factors.  The two blocks are triangular times
    Hessenberg products of about n^3/6 each, and T*^-1 takes n inverses.

    Only the two blocks are computed: the eigenvector labels `A U = U H`
    and `A* V = V H*` hold by construction for distinct theta and theta*
    (`tests/test_leonard_oracle.py` checks them on build, and compares
    this check with the V and V^-1 recurrences it replaced).
    """
    m, p, pair = a.matrices, a.p, a.pair
    _require_distinct(p.theta_star)
    F, n, vp = p.field, p.d + 1, p.varphi
    zero, one = F.zero_value, F.one_value
    K = (pair.Tstar * SquareMatrix.diagonal(F, p.theta, above=vp)
         * divided_differences(F, p.theta_star, *pair.sides_star)).values
    star = []
    for i in range(n):
        stop = next((j for j in range(i + 1, n) if not vp[j - 1]), n)
        star.append([one if j == i - 1 else K[j][i] if i <= j < stop else zero
                     for j in range(n)])

    report = CheckReport("leonard-conditions")
    for label, block in (("E* A E*", star),
                         ("E A* E", (m.T * m.Astar * m.Tinv).values)):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if abs(i - j) > 1 and x != zero:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and x == zero:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


def s_matrix(p: ParameterArray, q: FieldElement) -> SquareMatrix:
    """Closed-form transition matrix in base q: entries are forward products of
    (theta_0 - theta_{d-t}) times q-trinomial coefficients.  The (0, 0)
    entry is the empty product times (q; q)_d^2 / (q; q)_d^2, which is one,
    so the matrix is G itself, with no scaling.

    With s = j - i, entry (i, j) is prefix_s (q; q)_j (q; q)_{d-i}
    (q; q)_{d-s} / ((q; q)_i (q; q)_s (q; q)_{d-j} (q; q)_d): a factor of
    s times one of i times one of j, so the d + 1 inverses of (q; q)_m are
    taken once and each entry costs two products.

    Raises BaseNotApplicable for q = 1 or q = -1, for scalars that are not a
    base of the array (d >= 3), and when a required (q; q)_m vanishes.
    """
    F, d = p.field, p.d
    one = F.one()
    if q == one or q == -one:
        raise BaseNotApplicable("no closed form at base 1 or -1")
    if q == F.zero():
        raise BaseNotApplicable("zero is never a base")
    if d >= 3:
        ratio = beta_plus_one(p)
        if q + q.inverse() + one != ratio:
            raise BaseNotApplicable("q + 1/q + 1 does not match the eigenvalue ratio")

    mul, sub, inv = F._mul, F._sub, F._checked_inv
    # poch[m] = (q; q)_m
    powers = accumulate([q.value] * d, mul)
    poch = list(accumulate([sub(F.one_value, x) for x in powers], mul,
                           initial=F.one_value))
    if F.zero_value in poch[1:]:
        raise BaseNotApplicable("q is a root of unity of order at most d")
    ipoch = [inv(x) for x in poch]

    th = [x.value for x in p.theta]
    prefix = accumulate([sub(th[0], x) for x in th[:0:-1]], mul, initial=F.one_value)
    by_s = [mul(mul(x, poch[d - s]), ipoch[s]) for s, x in enumerate(prefix)]
    by_i = [mul(mul(poch[d - i], ipoch[i]), ipoch[d]) for i in range(d + 1)]
    by_j = [mul(poch[j], ipoch[d - j]) for j in range(d + 1)]
    return SquareMatrix(F, d + 1, tuple(
        (F.zero_value,) * i + tuple([mul(mul(by_s[j - i], by_i[i]), by_j[j])
                                     for j in range(i, d + 1)])
        for i in range(d + 1)))


def verify_transition_matrix(a: Analysis) -> CheckReport:
    """G against the closed form s_matrix.  The base q is the first
    root of q^2 - beta q + 1 in the field at d >= 3, and `first_case1_base`
    below that.  The check is skipped for one of two reasons, checked in
    this order: the field holds no such q (`no in-field base`); q is 1 or -1
    (`base ±1`, cases II, III and IV).  On an array that satisfies PA1 and
    PA5, s_matrix takes every other q: with q != +-1, theta_i = a + b q^i +
    c q^-i, so a q of order m <= d would give theta_m = theta_0.  On an
    array that fails them, s_matrix's BaseNotApplicable propagates."""
    p = a.p
    report = CheckReport("transition-matrix")
    if p.d >= 3:
        roots = base_candidates(p).roots
        q = roots[0] if roots else None
    else:
        q = first_case1_base(p.field)
    if q is None:
        report.skipped = "no in-field base"
    elif q == p.field.one() or q == -p.field.one():
        report.skipped = "base ±1"
    elif s_matrix(p, q) != a.matrices.G:
        report.add("G differs from the closed form")
    return report
