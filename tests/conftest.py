import dataclasses
import functools
import operator
import struct
from dataclasses import dataclass
from typing import Sequence

import pytest

from leonard import (
    FamilyParams,
    Field,
    FieldElement,
    SquareMatrix,
    d4_apply,
    extension_field,
    generate,
    make_array,
    prime_field,
    rational_field,
)
from leonard import fields
from leonard.splitmat import divided_differences

Q = rational_field()


def qarr(theta, theta_star, varphi, phi):
    """Build an array over Q from plain int/str literals."""
    conv = lambda xs: [Q.parse(str(x)) for x in xs]
    return make_array(Q, conv(theta), conv(theta_star), conv(varphi), conv(phi))


def ci_q_racah(d):
    """The q-Racah array of the CI steps: q = 2, h = h* = 1, s = 3, s* = 5,
    r1 = 2 and r2 = s s* q^(d+1) / r1."""
    names = dict(q=2, h=1, hstar=1, s=3, sstar=5, r1=2, r2=15 * 2**d, theta0=0, thetastar0=0)
    values = {name: Q.from_int(x) for name, x in names.items()}
    return generate(FamilyParams(family="q-racah", d=d, values=values), Q)


def dense_transition_matrix(a):
    """G as build formed it before it read G off A G = G B: T^-1 Z Tdown,
    with T^-1 the closed form `divided_differences` (n inverses, and the
    field's ZeroDivisionError where theta repeats) and the product by the
    kernel.  The oracle for build's G."""
    p, pair = a.p, a.pair
    Tinv = divided_differences(p.field, p.theta, *pair.sides)
    return Tinv * SquareMatrix(p.field, p.d + 1, pair.Tdown.values[::-1])


def build_matrix(field, n, entry):
    """The n x n matrix over field with entry(i, j), a FieldElement, at
    (i, j)."""
    return SquareMatrix(field, n, tuple(
        tuple([entry(i, j).value for j in range(n)]) for i in range(n)))


def comparison_matrix(comparison):
    """The tridiagonal recurrence matrix J (or J*) of a `recur.Comparison`,
    formed from its bands."""
    return SquareMatrix.diagonal(comparison.field, *comparison.bands)


def elements(F, payloads):
    """The elements of F with the given payloads, in order: how a test
    reads a payload layer of `Analysis` as elements."""
    return tuple(F._elements[v] for v in payloads)


def dense_mul(x, y):
    """The schoolbook product, every entry the full sum of n terms started
    from zero: the oracle for SquareMatrix.__mul__, which skips zero terms."""
    F = x.field
    cols = list(zip(*y.rows))
    return SquareMatrix.from_rows(F, [
        [sum((a * b for a, b in zip(row, col)), start=F.zero()) for col in cols]
        for row in x.rows])


def count_multiplications(fn):
    """Call fn() and return how many field multiplications it made: the
    calls of the payload product `_mul`, whether an element operator, a
    matrix method or a scalar chain on payloads makes them, the pairs
    of int terms that the Q kernel and the Q intertwining test
    (`RationalField._intertwining_failures`) multiply in
    fields._int_products.  Q and GF(p) define `_mul` on their classes; an
    extension field keeps it on the instance, so every cached extension
    field is counted there.  The kernels hand `_int_products` and `_mul`
    only their nonzero terms, so a kernel that stopped skipping zero terms
    would be counted for them."""
    calls = 0

    def counted(mul):
        def counted_mul(*args):
            nonlocal calls
            calls += 1
            return mul(*args)
        return counted_mul

    int_products = fields._int_products

    def counted_int_products(left, right):
        nonlocal calls
        calls += sum(len(right[k]) for row in left for k, _ in row)
        return int_products(left, right)

    owners = [cls for cls in Field.__subclasses__() if "_mul" in vars(cls)]
    owners += [F for F in fields._FIELD_CACHE.values() if "_mul" in vars(F)]
    patches = [(owner, "_mul", counted(owner._mul)) for owner in owners]
    patches.append((fields, "_int_products", counted_int_products))
    originals = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, wrapped in patches:
        setattr(obj, name, wrapped)
    try:
        fn()
    finally:
        for obj, name, orig in originals:
            setattr(obj, name, orig)
    return calls


# The product and the linear maps of GF(p^k) above the table cap as the
# field layer had them before each field wrote its own out: the oracles of
# the written-out kernels.  A payload is packed into one int at 1, 2, 4 or 8
# bytes per coefficient, the fewest that hold k(p-1)^2, the largest
# convolution coefficient, so one int product is the convolution; where 8
# bytes are too few the convolution is summed term by term.
KRONECKER_WIDTHS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


@functools.cache
def kronecker_packings(p, k):
    """The structs that pack a payload and unpack a convolution of GF(p^k);
    (None, None) when no width of at most 8 bytes holds k(p-1)^2."""
    bound = k * (p - 1) ** 2
    for width, code in KRONECKER_WIDTHS:
        if bound < 256**width:
            return struct.Struct(f"<{k}{code}"), struct.Struct(f"<{2 * k - 1}{code}")
    return None, None


@functools.cache
def kronecker_fold(modulus, p):
    return fields._fold_rows(modulus, p)


def kronecker_product(F, a, b):
    """The payload a*b in the field F: the convolution by one int product of
    the packed payloads, or term by term, with degrees k..2k-2 folded down
    through the rows of x^(k+j) mod the modulus and one % p each."""
    payload, conv_struct = kronecker_packings(F.p, F.k)
    if payload is None:
        conv = [0] * (2 * F.k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    else:
        product = (int.from_bytes(payload.pack(*a), "little")
                   * int.from_bytes(payload.pack(*b), "little"))
        conv = conv_struct.unpack(product.to_bytes(conv_struct.size, "little"))
    low = list(conv[:F.k])
    for j, i, c in kronecker_fold(F.modulus, F.p):
        low[i] += conv[j] * c
    return tuple(c % F.p for c in low)


def packed_linear_map(F, rows):
    """x -> sum_i x_i rows[i] on payloads of F: one int product per packed
    row and one unpack, or one dot product per column where F does not pack."""
    p, payload = F.p, kronecker_packings(F.p, F.k)[0]
    if payload is None:
        return lambda x: tuple(sum(map(operator.mul, x, col)) % p for col in zip(*rows))
    packed = [int.from_bytes(payload.pack(*row), "little") for row in rows]
    return lambda x: tuple(c % p for c in payload.unpack(
        sum(map(operator.mul, x, packed)).to_bytes(payload.size, "little")))


# The k-term payload sum, difference and negative of GF(p^k): the oracle for
# the written-out ones each extension field compiles when it is made.
def kterm_add(F, a, b):
    return tuple([(x + y) % F.p for x, y in zip(a, b)])


def kterm_sub(F, a, b):
    return tuple([(x - y) % F.p for x, y in zip(a, b)])


def kterm_neg(F, a):
    return tuple([(-x) % F.p for x in a])


def random_injective(F, n, rng):
    """n distinct random elements of F, in the order drawn."""
    values = []
    while len(values) < n:
        x = F.random_element(rng)
        if x not in values:
            values.append(x)
    return values


def random_array(F, d, rng):
    """theta and theta* injective, varphi and phi nonzero; nothing else holds."""
    nonzero = lambda: [F.random_element(rng, nonzero=True) for _ in range(d)]
    return make_array(F, random_injective(F, d + 1, rng),
                      random_injective(F, d + 1, rng), nonzero(), nonzero())


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients low order first, trimmed."""

    field: Field
    coeffs: tuple[FieldElement, ...]

    @staticmethod
    def make(field: Field, coeffs: Sequence[FieldElement]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == field.zero():
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def constant(field: Field, c: FieldElement) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly.constant(field, field.one())

    @staticmethod
    def x_minus(field: Field, c: FieldElement) -> "Poly":
        return Poly.make(field, [-c, field.one()])

    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly.make(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-self.field.one())

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.field, ())
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.field, out)

    def scale(self, c: FieldElement) -> "Poly":
        return Poly.make(self.field, [a * c for a in self.coeffs])

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _poly_family(field: Field,
                 theta: Sequence[FieldElement],
                 theta_star: Sequence[FieldElement],
                 varphi: Sequence[FieldElement]) -> list[Poly]:
    # f_i = sum over n of (x - theta_0)..(x - theta_{n-1})
    #       * (theta*_i - theta*_0)..(theta*_i - theta*_{n-1}) / (varphi_1..varphi_n)
    d = len(theta) - 1
    prefix = [Poly.one(field)]
    for n in range(1, d + 1):
        prefix.append(prefix[-1] * Poly.x_minus(field, theta[n - 1]))
    out = []
    for i in range(d + 1):
        total = Poly.one(field)
        coeff = field.one()
        for n in range(1, i + 1):
            coeff = coeff * (theta_star[i] - theta_star[n - 1]) * varphi[n - 1].inverse()
            total = total + prefix[n].scale(coeff)
        out.append(total)
    return out


@dataclass(frozen=True)
class HornerTable:
    f: tuple[Poly, ...]
    fdown: tuple[Poly, ...]
    fstar: tuple[Poly, ...]


def horner_table(p):
    """The three polynomial families of p by their coefficients, built as
    sums of Newton products: the oracle for the evaluation matrices of
    corresponding_polys, which never forms a coefficient."""
    F, d = p.field, p.d
    rev = tuple(p.theta[d - i] for i in range(d + 1))
    star = d4_apply(p, ["star"])
    return HornerTable(
        f=tuple(_poly_family(F, p.theta, p.theta_star, p.varphi)),
        fdown=tuple(_poly_family(F, rev, p.theta_star, p.phi)),
        fstar=tuple(_poly_family(F, star.theta, star.theta_star, star.varphi)))


def satisfies_pa1_pa2(p):
    distinct = all(len(set(seq)) == p.d + 1 for seq in (p.theta, p.theta_star))
    return distinct and all(p.varphi) and all(p.phi)


def pa1_pa2_perturbations(p):
    """Every copy of p with one entry of theta, theta*, varphi or phi moved
    by +1 or -1 that still satisfies PA1 and PA2, each copy once."""
    one = p.field.one()
    seen = set()
    for name in ("theta", "theta_star", "varphi", "phi"):
        seq = getattr(p, name)
        for k in range(len(seq)):
            for step in (one, -one):
                moved = seq[:k] + (seq[k] + step,) + seq[k + 1:]
                q = dataclasses.replace(p, **{name: moved})
                if q not in seen and satisfies_pa1_pa2(q):
                    seen.add(q)
                    yield q


@pytest.fixture
def fix_d1():
    # smallest fixture: d = 1, f_1 = 1 + lambda, nu = 1/2
    return qarr([0, 1], [0, 1], [1], [2])


@pytest.fixture
def kraw2():
    # krawtchouk d = 2 with s = sstar = 1, r = 2
    return qarr([0, 1, 2], [0, 1, 2], [-4, -4], [-2, -2])


@pytest.fixture
def kraw3():
    # krawtchouk d = 3 with s = sstar = 1, r = 2
    return qarr([0, 1, 2, 3], [0, 1, 2, 3], [-6, -8, -6], [-3, -4, -3])


@pytest.fixture
def qrac3():
    # q-racah d = 3 with q = 2, base in Q
    vals = {name: Q.parse(text) for name, text in dict(
        q="2", h="1", hstar="1", s="1", sstar="1", r1="3", r2="16/3",
        theta0="0", thetastar0="0").items()}
    return generate(FamilyParams(family="q-racah", d=3, values=vals), Q)


@pytest.fixture
def gf4():
    return extension_field(2, 2, (1, 1, 1))


@pytest.fixture
def orphan3(gf4):
    w = gf4.generator()
    one = gf4.one()
    zero = gf4.zero()
    vals = {"h": one, "hstar": one, "s": w, "sstar": w, "r": w,
            "theta0": zero, "thetastar0": zero}
    return generate(FamilyParams(family="orphan", d=3, values=vals), gf4)


@pytest.fixture
def gf5():
    return prime_field(5)


@pytest.fixture
def gf7():
    return prime_field(7)


@pytest.fixture
def gf11():
    return prime_field(11)
