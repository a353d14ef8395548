"""Exact matrix realizations attached to a parameter array.

Everything here works over an arbitrary Field from .fields: square matrices
with exact entries, the bidiagonal pair (A, A*) and its companion pair
(B, B*), the triangular transition machinery connecting them, primitive
idempotents, and the q-binomial transition matrix available when the array
has a usable base in the field.

Every product of differences of eigenvalues is built here, once per
array: `pair_products` holds what depends on (theta, theta*) alone, the
difference tables of theta and of theta* (`difference_table`, each
difference taken once, its mirror image by `_neg`), the triangular
factors T, T* and Tdown read off them and the products below and above
each eigenvalue, from which the recurrence coefficients, the weights and
nu are read.  The products below are the diagonals of T and T*, those
above each theta the reversed diagonal of Tdown, and those above each
theta* one product of a table row each.  `build`, `recur`'s
alt-recurrence check and `verify_transition_matrix` read their
differences from the same tables.  `split_products` holds what depends on (varphi, phi)
alone, the diagonals D_i = varphi_1 .. varphi_i and Ddown_i = phi_1 ..
phi_i (`prefix_products`), from which D, Ddown and their inverses, the
alphas, the weights' ratios and nu's denominator are read.  `build`,
`polys`, `ortho` and `recur` read the one `Analysis.pair` and the one
`Analysis.splits`.  `build` forms the transition matrix G column by
column from A G = G B, with no inverse.  `divided_differences` turns the
products of theta into T^-1 in closed form, `Tinv`, and those of theta*
into T*^-1, for the dense Leonard blocks alone.

`verify_leonard_conditions` reads the E A* E block of the array and of its
dual.  On the passing path they are the recurrence matrices J* and J^t,
read off the bands the three-term and difference comparisons of `recur`
keep (LS99:
T A* T^-1 = P H* P^-1 and T* A*' T*^-1 = P^t H P^-t, with P = T D^-1
T*^t), so no product is formed; `dense_leonard_blocks`, T A* T^-1 and
T* A*' T*^-1 by products, is the route when a comparison fails or a
varphi_i or phi_i is zero.

A SquareMatrix holds the canonical payloads of its entries, row by row,
and every layer of `Analysis` holds payloads the same way: the products of
differences and the prefix products here, and the tables, alphas, weights
and recurrence coefficients that `polys`, `ortho` and `recur` read from
them.  A FieldElement is built only where a reader asks for one: the
`rows` of a matrix, and the named views (`_element_view`) of the weights
and the recurrence coefficients, for the dumps and the tests.  Every
banded matrix comes from one constructor, `SquareMatrix.diagonal`, given
the payloads of its diagonal and of the off-diagonals below and above it:
A and B (ones below), A* and B* (varphi and phi above), and the dual
A*' of `dense_leonard_blocks`.
`build` forms the one matrix a check reads that `Analysis.pair` does not
hold, G; T^-1, A, B, A*, B*, D, Ddown, Z, H and H* are formed on first
read, for the `matrices` dump, the dense Leonard blocks and the tests.
The products here are each one call of the field's payload kernel
`Field._matmul`, or of `scale_rows` and `scale_columns` where one factor
is diagonal, each of which works row by row with no transpose, so
comparing two results compares payload tuples.  The
conjugation identity A* G = G B* forms neither side: A* and B* are
bidiagonal, and it is one call of `Field._intertwining_failures` on their
diagonals and the rows of G.  The scalar chains (the difference tables
and their products, the recurrence of G and the closed forms of T^-1 and
of the q-binomial G, with its guards on the base and beta + 1) run
through the field's `_mul`, `_add`, `_sub`, `_neg` and `_checked_inv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    BaseNotApplicable,
    RepeatedEigenvalue,
    SingularMatrix,
)
from .fields import Field, FieldElement, quadratic_roots
from .parray import ParameterArray, _repeats, first_case1_base
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
    def identity(field: Field, n: int) -> "SquareMatrix":
        return SquareMatrix.diagonal(field, [field.one_value] * n)

    @staticmethod
    def diagonal(field: Field, entries: Sequence, below: Sequence = (),
                 above: Sequence = ()) -> "SquareMatrix":
        """The banded matrix with diagonal `entries`, below[i] at (i + 1, i)
        and above[i] at (i, i + 1), all three given as payloads."""
        n = len(entries)
        rows = [[field.zero_value] * n for _ in range(n)]
        for (r, c), band in (((0, 0), entries), ((1, 0), below), ((0, 1), above)):
            for i, x in enumerate(band):
                rows[i + r][i + c] = x
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

    def scale_rows(self, c: Sequence) -> "SquareMatrix":
        """diag(c) * self, row i times the payload c[i]: one `_mul` per pair
        of a nonzero entry and a nonzero c[i], the pairs the kernel would
        multiply, and no kernel call."""
        F = self.field
        mul, zero = F._mul, F.zero_value
        return SquareMatrix(F, self.n, tuple(
            tuple([mul(x, y) if x != zero and y != zero else zero for x in row])
            for row, y in zip(self.values, c)))

    def scale_columns(self, c: Sequence) -> "SquareMatrix":
        """self * diag(c), column j times the payload c[j], row by row, with
        the products scale_rows makes."""
        F = self.field
        mul, zero = F._mul, F.zero_value
        return SquareMatrix(F, self.n, tuple(
            tuple([mul(x, y) if x != zero and y != zero else zero for x, y in zip(row, c)])
            for row in self.values))

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


def _payloads(elements: Sequence[FieldElement]) -> list:
    return [x.value for x in elements]


def difference_table(field: Field, values: Sequence[FieldElement]) -> tuple:
    """Row i holds the payloads of values[i] - values[h] for every h: one
    `_sub` for each h < i, the entries above the diagonal the `_neg` of
    their mirror images, and zero on the diagonal.  Every product of
    differences of `values` reads its factors here."""
    sub, neg, zero = field._sub, field._neg, field.zero_value
    vals = _payloads(values)
    table = [[zero] * len(vals) for _ in vals]
    for i, x in enumerate(vals):
        row = table[i]
        for h in range(i):
            row[h] = y = sub(x, vals[h])
            table[h][i] = neg(y)
    return tuple(map(tuple, table))


def _running_products(field: Field, n: int, factors: Iterable[Sequence]) -> SquareMatrix:
    """The n x n lower-triangular matrix whose row i is 1 and the running
    products of the i-th sequence of `factors`, then zeros.  With row i of
    a difference table cut at the diagonal as factors, entry (i, j) is the
    product of values[i] - values[h] over h < j; above the diagonal that
    product holds the factor values[i] - values[i], so it is zero."""
    mul, one, zero = field._mul, field.one_value, field.zero_value
    return SquareMatrix(field, n, tuple((one, *accumulate(f, mul)) + (zero,) * (n - 1 - i)
                                        for i, f in enumerate(factors)))


@dataclass(frozen=True)
class PairProducts:
    """The products of differences of one (theta, theta*) pair: T, T* and
    Tdown, and `sides` = (below, above), with below[i] and above[i] the
    payloads of the products of theta_i - theta_h over h < i and over
    h > i (`sides_star` likewise for theta*).  below[i] above[i] is the
    denominator of the i-th Lagrange basis polynomial, and 1 / (below[i]
    above[i]) the barycentric weight of theta_i.  `differences` and
    `differences_star` are the difference tables of theta and theta*
    (`difference_table`) that they are read from, which `build`,
    `verify_alt_formulas` and `verify_transition_matrix` read too."""

    T: SquareMatrix
    Tstar: SquareMatrix
    Tdown: SquareMatrix
    sides: tuple[tuple, tuple]
    sides_star: tuple[tuple, tuple]
    differences: tuple
    differences_star: tuple


def pair_products(field: Field, theta: Sequence[FieldElement],
                  theta_star: Sequence[FieldElement]) -> PairProducts:
    """T, T* and Tdown, each one run of products over the difference
    tables of theta and theta*, each formed once.  Tdown's row i runs over
    theta_{d-i} - theta_h for h = d, d - 1, .., d - i + 1, entries above
    the diagonal of the table.  The products below are the diagonals of T
    and T*, those above each theta_i the diagonal of Tdown read backwards,
    and those above each theta*_i one product of the table's row past the
    diagonal.  Nothing is inverted, so a repeated value gives zeros, not
    an error."""
    diff, diff_star = difference_table(field, theta), difference_table(field, theta_star)
    n = len(diff)
    T, Tstar = (_running_products(field, n, (row[:i] for i, row in enumerate(m)))
                for m in (diff, diff_star))
    Tdown = _running_products(field, n, (diff[c][:c:-1] for c in range(n - 1, -1, -1)))
    below, above, below_star = (tuple([row[i] for i, row in enumerate(m.values)])
                                for m in (T, Tdown, Tstar))
    mul, one = field._mul, field.one_value
    above_star = tuple(reduce(mul, row[i + 1:], one) for i, row in enumerate(diff_star))
    return PairProducts(T=T, Tstar=Tstar, Tdown=Tdown, sides=(below, above[::-1]),
                        sides_star=(below_star, above_star),
                        differences=diff, differences_star=diff_star)


def divided_differences(field: Field, values: Sequence[FieldElement],
                        below: Sequence, above: Sequence) -> SquareMatrix:
    """The inverse of the products of differences of `values` (T of
    `pair_products`), in closed form, from the payloads of the products
    below and above each value (`PairProducts`).

    Entry (k, j), for j <= k, is 1 / the product of values[j] - values[h]
    over h <= k, h != j: row k holds the weights of the divided difference
    over values[0..k].  Each column takes one inverse, the barycentric
    weight of values[j] at its foot (k = n - 1), and climbs by one factor
    values[j] - values[k + 1] a step.  Raises ZeroDivisionError when a
    value repeats."""
    mul, sub, inv = field._mul, field._sub, field._checked_inv
    vals = _payloads(values)
    columns = []
    for j, x in enumerate(vals):
        foot = inv(mul(below[j], above[j]))
        column = accumulate([sub(x, y) for y in vals[:j:-1]], mul, initial=foot)
        columns.append((field.zero_value,) * j + tuple(reversed(list(column))))
    return SquareMatrix(field, len(vals), tuple(zip(*columns)))


def prefix_products(field: Field, values: Sequence[FieldElement]) -> tuple:
    """The payloads of 1, values[0], values[0] values[1], ..., the product
    of all values."""
    return tuple(accumulate(_payloads(values), field._mul, initial=field.one_value))


@dataclass(frozen=True)
class SplitProducts:
    """The payloads of the diagonals of D and Ddown: D[i] = varphi_1 ..
    varphi_i and Ddown[i] = phi_1 .. phi_i, with D[0] = Ddown[0] = 1.  The
    scalar that relates f_i to its reversed companion is Ddown[i] / D[i]."""

    D: tuple
    Ddown: tuple


def split_products(field: Field, varphi: Sequence[FieldElement],
                   phi: Sequence[FieldElement]) -> SplitProducts:
    """D and Ddown, one run of products each.  Nothing is inverted, so a
    zero varphi_i or phi_i gives zeros from there on, not an error."""
    return SplitProducts(D=prefix_products(field, varphi), Ddown=prefix_products(field, phi))


def _element_view(index: int, scalar: bool = False) -> cached_property:
    """Entry `index` of the payloads `values` of a dataclass with a `field`,
    wrapped in FieldElements the first time it is read, as SquareMatrix.rows
    wraps the payload rows: a tuple of elements, or one element where the
    entry is one payload (`scalar`)."""
    def view(self):
        wrap, x = self.field._elements, self.values[index]
        return wrap[x] if scalar else tuple([wrap[v] for v in x])
    return cached_property(view)


@dataclass(frozen=True)
class SplitMatrixSet:
    """The matrices realizing a parameter array `p` in the split basis.  The
    fields are the ones a check reads: G, and T, T* and Tdown from
    `Analysis.pair`.  G is unit upper triangular, so invertible by
    construction.  T^-1 (`Tinv`), A, B, A*, B*, D, Ddown, Z, H and H* are
    formed from `p`, `splits` and `pair` the first time they are read."""

    p: ParameterArray
    splits: SplitProducts
    pair: PairProducts
    G: SquareMatrix

    T = property(lambda self: self.pair.T)
    Tstar = property(lambda self: self.pair.Tstar)
    Tdown = property(lambda self: self.pair.Tdown)

    def _banded(self, diagonal: Sequence[FieldElement], below: bool = False,
                above: Sequence[FieldElement] = ()) -> SquareMatrix:
        F = self.p.field
        ones = [F.one_value] * self.p.d if below else ()
        return SquareMatrix.diagonal(F, _payloads(diagonal), below=ones, above=_payloads(above))

    Tinv = cached_property(lambda self: divided_differences(self.p.field, self.p.theta,
                                                            *self.pair.sides))
    A = cached_property(lambda self: self._banded(self.p.theta, below=True))
    B = cached_property(lambda self: self._banded(self.p.theta[::-1], below=True))
    Astar = cached_property(lambda self: self._banded(self.p.theta_star, above=self.p.varphi))
    Bstar = cached_property(lambda self: self._banded(self.p.theta_star, above=self.p.phi))
    D = cached_property(lambda self: SquareMatrix.diagonal(self.p.field, self.splits.D))
    Ddown = cached_property(lambda self: SquareMatrix.diagonal(self.p.field, self.splits.Ddown))
    Z = cached_property(lambda self: SquareMatrix(self.p.field, self.p.d + 1, (
        SquareMatrix.identity(self.p.field, self.p.d + 1).values[::-1])))
    H = cached_property(lambda self: self._banded(self.p.theta))
    Hstar = cached_property(lambda self: self._banded(self.p.theta_star))


def build(a: Analysis) -> SplitMatrixSet:
    """G, the transition matrix with G e_0 = e_0 and A G = G B, formed
    once.  A and B are lower bidiagonal with ones below and diagonals theta
    and theta reversed, so column j + 1 of A G = G B reads

        G[i][j+1] = G[i-1][j] + (theta_i - theta_{d-j}) G[i][j],

    one column from the previous one: d(d + 1)/2 products, no inverse and
    no kernel call, each difference read from the table of theta in
    `Analysis.pair`.  G is unit upper triangular, and it is T^-1 Z Tdown,
    the same payloads.  A repeated theta raises the ZeroDivisionError that
    T^-1 raises, so every check keeps its exception."""
    p, pair = a.p, a.pair
    F, d = p.field, p.d
    mul, add, zero, one = F._mul, F._add, F.zero_value, F.one_value
    if zero in pair.sides[0]:  # theta repeats: raise as T^-1 would
        F._checked_inv(zero)
    diff = pair.differences
    columns = [(one,)]
    for j in range(d):
        prev = columns[-1]
        columns.append(tuple([add(up, mul(row[d - j], g))
                              for up, row, g in zip((zero,) + prev, diff, prev)]) + (one,))
    rows = tuple(zip(*[c + (zero,) * (d - j) for j, c in enumerate(columns)]))
    return SplitMatrixSet(p=p, splits=a.splits, pair=pair, G=SquareMatrix(F, d + 1, rows))


def verify_conjugation(a: Analysis) -> CheckReport:
    """Part (ii) of the theorem: G carries (A, A*) to (B, B*).

    Only `Ginv * A* * G = B*` is computed, as A* G = G B*: build's G is
    unit upper triangular, so invertible by construction, and the two
    forms hold together.  A* and B* are bidiagonal, so the identity is
    one call of `Field._intertwining_failures` on their diagonals and the
    rows of G, at most two products an entry on each side, O(n^2) field
    operations, with neither side formed.

    The other labels of the check hold for every distinct theta, theta* and
    nonzero varphi, so they are identities of build, not properties of the
    array, and are not computed (`tests/test_leonard_oracle.py` checks them
    on build):
    - T A = H T, since T[i][j+1] = T[i][j] (theta_i - theta_j);
    - Z Tdown B = H Z Tdown, the same identity for the reversed theta;
    - D A* D^-1 T*^t = T*^t H*, the same identity for T*, since D A* D^-1
      is the transpose of A with theta* in place of theta;
    - G Ginv = I, since G is unit upper triangular;
    - Ginv A G = B, which is how build forms G.
    D^-1 is not taken; a zero varphi raises SingularMatrix at the first
    zero D_i, with the message Gauss-Jordan on D gives.
    """
    G, p, D = a.matrices.G, a.p, a.splits.D
    zero = p.field.zero_value
    if zero in D:
        raise SingularMatrix(f"no pivot in column {D.index(zero)}")
    report = CheckReport("conjugation")
    ths = _payloads(p.theta_star)
    if p.field._intertwining_failures((ths, (), _payloads(p.varphi)), G.values,
                                      (ths, (), _payloads(p.phi))):
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


def dense_leonard_blocks(a: Analysis) -> tuple[SquareMatrix, SquareMatrix]:
    """K = T* A*' T*^-1, the dual array's E A* E block, and T A* T^-1,
    this array's: two triangular-by-Hessenberg products of about n^3/6
    each, with T^-1 and T*^-1 the closed forms `divided_differences` of
    theta and of theta*, each of which takes n inverses (T^-1 is
    `SplitMatrixSet.Tinv`, formed here on first read)."""
    m, p, pair = a.matrices, a.p, a.pair
    F = p.field
    K = (pair.Tstar * SquareMatrix.diagonal(F, _payloads(p.theta), above=_payloads(p.varphi))
         * divided_differences(F, p.theta_star, *pair.sides_star))
    return K, m.T * m.Astar * m.Tinv


def verify_leonard_conditions(a: Analysis) -> CheckReport:
    """Tridiagonal shape of A on the eigenspaces of A*, and of A* on those of A.

    A is lower bidiagonal with distinct diagonal theta, so T A = H T makes
    the columns of T^-1 its eigenvectors: U = T^-1 diag(T) is the unit
    lower-triangular eigenvector matrix, and U^-1 = diag(T)^-1 T.  Each
    primitive idempotent is rank one, E_i = U e_i e_i^t U^-1, so the block
    E_i A* E_j vanishes exactly when the scalar (U^-1 A* U)_ij does, and
    that scalar is (T A* T^-1)_ij times the nonzero T_jj / T_ii.  So the
    E A* E block is read from T A* T^-1.

    The E* A E* block is the same block of the dual array, which swaps
    theta with theta* and keeps varphi: K = T* A*' T*^-1, with A*' upper
    bidiagonal with diagonal theta and superdiagonal varphi.  A* has the
    unit upper-triangular eigenvector matrix V = D^-1 T*^t diag(D_j /
    below*_j), so for i <= j

        (V^-1 A V)_ij = varphi_{i+1} .. varphi_j (below*_i / below*_j) K[j][i],

    an identity of polynomials in varphi that holds at a zero varphi too;
    below the diagonal V^-1 A V is 1 at (i + 1, i) and 0 further down, so
    those entries cannot fail.  Row i of the block is therefore K[j][i]
    for j = i + 1, i + 2, .. up to the first zero varphi_j, and zero from
    there on, up to nonzero factors.

    The two blocks are read off the recurrence when every varphi_i and
    phi_i is nonzero and the three-term and difference comparisons of
    `Analysis` hold.  There P = T D^-1 T*^t is invertible, and build's
    identities D A* D^-1 T*^t = T*^t H* and D A*' D^-1 T^t = T^t H give
    T A* T^-1 = P H* P^-1 and K = P^t H P^-t; the difference equation
    P H* = J* P makes the first J*, and the three-term recurrence H P =
    P J makes K = J^t, exactly.  J and J* are tridiagonal, so only their
    2d entries next to the diagonal are read, off the bands the
    comparisons keep, and neither is formed: row i of the E* A E* block
    is one at (i, i - 1) and J[i][i + 1] at (i, i + 1).  Otherwise the
    blocks are the products of `dense_leonard_blocks`, read entry by
    entry.  Either way the entries are read in row-major order by one
    loop, build and the theta* test come first, and the lines and the
    exceptions do not depend on the route.

    Only the two blocks are computed: the eigenvector labels `A U = U H`
    and `A* V = V H*` hold by construction for distinct theta and theta*
    (`tests/test_leonard_oracle.py` checks them on build, and compares
    this check with the V and V^-1 recurrences it replaced).
    """
    a.matrices
    p = a.p
    _require_distinct(p.theta_star)
    n, vp = p.d + 1, p.varphi
    zero, one = p.field.zero_value, p.field.one_value
    if (all(vp) and all(p.phi) and not a.three_term.failures
            and not a.difference.failures):
        # entry (i, i - 1) of a band matrix is below[i - 1], (i, i + 1) above[i]
        above = a.three_term.bands[2]
        _, below_star, above_star = a.difference.bands
        band = [(i, j) for i in range(n) for j in (i - 1, i + 1) if 0 <= j < n]
        star = [(i, j, one if j < i else above[i]) for i, j in band]
        block = [(i, j, below_star[j] if j < i else above_star[i]) for i, j in band]
    else:
        K, block = (x.values for x in dense_leonard_blocks(a))
        star = []
        for i in range(n):
            stop = next((j for j in range(i + 1, n) if not vp[j - 1]), n)
            star += [(i, j, one if j == i - 1 else K[j][i] if i <= j < stop else zero)
                     for j in range(n)]
        block = [(i, j, x) for i, row in enumerate(block) for j, x in enumerate(row)]

    report = CheckReport("leonard-conditions")
    for label, entries in (("E* A E*", star), ("E A* E", block)):
        for i, j, x in entries:
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
    The work is `_closed_form`'s, on the payload of q.
    """
    return _closed_form(p, q.value)


def _closed_form(p: ParameterArray, q, bp1=None) -> SquareMatrix:
    """s_matrix on the payload q of the base, guards included.  At d >= 3,
    bp1 is the payload of beta + 1 = (theta_0 - theta_3) / (theta_1 -
    theta_2) where the caller has it, and it is read off theta here
    otherwise; a repeated theta_1 = theta_2 raises ZeroDivisionError."""
    F, d = p.field, p.d
    mul, add, sub, inv, one = F._mul, F._add, F._sub, F._checked_inv, F.one_value
    if q == one or q == F._neg(one):
        raise BaseNotApplicable("no closed form at base 1 or -1")
    if q == F.zero_value:
        raise BaseNotApplicable("zero is never a base")
    th = _payloads(p.theta)
    if d >= 3:
        if bp1 is None:
            bp1 = mul(sub(th[0], th[3]), inv(sub(th[1], th[2])))
        if add(add(q, inv(q)), one) != bp1:
            raise BaseNotApplicable("q + 1/q + 1 does not match the eigenvalue ratio")

    # poch[m] = (q; q)_m
    powers = accumulate([q] * d, mul)
    poch = list(accumulate([sub(one, x) for x in powers], mul, initial=one))
    if F.zero_value in poch[1:]:
        raise BaseNotApplicable("q is a root of unity of order at most d")
    ipoch = [inv(x) for x in poch]

    prefix = accumulate([sub(th[0], x) for x in th[:0:-1]], mul, initial=one)
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
    array that fails them, s_matrix's BaseNotApplicable propagates.

    beta + 1 is read on payloads, off the difference table of theta in
    `Analysis.pair`, and passed to the closed form (`_closed_form`), so it
    is formed once; the roots come from `quadratic_roots`, and the guards
    on q compare payloads."""
    p = a.p
    F = p.field
    one = F.one_value
    report = CheckReport("transition-matrix")
    bp1 = None
    if p.d >= 3:
        diff = a.pair.differences
        bp1 = F._mul(diff[0][3], F._checked_inv(diff[1][2]))
        roots = quadratic_roots(F, F._elements[F._sub(one, bp1)], F.one())
        q = roots[0] if roots else None
    else:
        q = first_case1_base(F)
    if q is None:
        report.skipped = "no in-field base"
    elif q.value == one or q.value == F._neg(one):
        report.skipped = "base ±1"
    elif _closed_form(p, q.value, bp1) != a.matrices.G:
        report.add("G differs from the closed form")
    return report
