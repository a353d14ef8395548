"""Exact field arithmetic over Q, GF(p) and GF(p^k).

Elements are immutable wrappers around a canonical payload:

* rationals: a pair ``(n, d)`` of ints, n/d in lowest terms with d > 0, and
  zero as ``(0, 1)``
* prime fields: ``int`` residue in ``[0, p)``
* extensions: tuple of ``k`` residues, low degree first, reduced mod p

An extension modulus is monic of degree k (stored low degree first, so the
last entry is 1) and is rejected unless irreducible over GF(p), by Rabin's
test (SIAM J. Comput. 1980) in time polynomial in k log p.  The
characteristic p must be below 2^64, where deterministic Miller-Rabin decides
primality exactly.

Roots in finite fields are found in time polynomial in log |F| and returned in
element order (by index_of), each checked before it is returned:
quadratic_roots takes square roots by Tonelli-Shanks in odd characteristic and
solves y^2 + y = u by the trace-one formula in characteristic 2; embed_map
finds a root of the source modulus by equal-degree splitting
(Cantor-Zassenhaus) and maps w to the smallest of its Frobenius conjugates.
Over Q, quadratic_roots takes the odd-characteristic path too, with a
perfect-square test of the discriminant's numerator and denominator as its
square root, and leaves the two roots in the order of the formula.

Both run on one dense-polynomial arithmetic over a Field: lists of
canonical payloads, low degree first, with remainder, product and power
modulo a polynomial, monic gcd and Horner evaluation taken through the
field's payload _add, _sub, _mul and _inv.  A remainder by a monic
polynomial takes no inverse.  Rabin's test and the fold rows below run it
over GF(p), on int payloads; the splitting runs it over the destination
field and builds no FieldElement in its loop.

Text formats round-trip exactly: ``"a/b"`` or ``"a"`` for rationals, a bare
residue for prime fields, and ``"c0+c1*w"`` (``"c0+c1*w+c2*w^2"`` and so on,
always all k terms) for extensions, where w is the residue of the modulus
root.  No decimal notation anywhere.

Cost of an operation.  Every FieldElement operator first takes a fast path
when the other operand is an element of the very same field object.
make_field keeps one object per field, under its canonical spec and under
every other spec it was given for it (a modulus with entries past p).
Anything else takes the one slow path, FieldElement._coerced: it coerces an
int, rebuilds an element of a field with an equal spec in this one or
refuses mixed fields, and then calls the operator as the class defined it
when the module loaded.  So an int operand costs one call more than a
same-field one, and a wrapper set on the class later still sees one call
per operation.  An operator's result is
`field._elements[payload]`: each field stores its zero and one payloads,
which the zero tests of bool() and inverse() compare with, and the hash of
its spec.  A finite field of order at most TABLE_ORDER_CAP builds each
element once and keeps it by payload in a dict, so an operation there is a
dict hit that calls no Python code and allocates nothing; elements are
immutable, so sharing them changes no result.  Q and larger fields build
each element by the slot descriptors directly.  Every payload is
canonical, so equal elements have equal payloads and equal hashes.
Rationals add and multiply on their (n, d) pairs with the gcd-splitting
sum and product of Knuth (TAOCP vol. 2, 4.5.1).  Each extension field, of
every degree, writes its payload sum, difference, negative and product out
once, when it is made, as straight-line Python: the coefficients of the
operands unpacked into names and one % p per output coefficient.  A sum,
difference or negative is then k terms of one operator each.  The product
is written for the modulus: each convolution coefficient a sum of
products, degrees k..2k-2 folded down through the constants of the rows of
x^(k+j) mod the modulus (a constant above p/2 written as a difference).
The source is built from ints alone, each constant written by :d, so
nothing but digits comes from the field's data, and p, k and the modulus
must be ints.  An extension field of order at most TABLE_ORDER_CAP (2^10)
multiplies and inverts by log/antilog tables built when it is made: the
generator is the first element of multiplicative order q - 1 in element
order, found by walking each candidate's powers with the written-out
product, accepted only when the walk returns to one after exactly q - 1
distinct powers.
Larger extensions multiply by the written-out product and invert by
Itoh-Tsujii (Inform. and Comput. 78(3), 1988): with
r = (p^k - 1)/(p - 1), a^(r-1) is the product of the conjugates a^(p^i),
0 < i < k, taken by an addition chain on k - 1 (at most 4 products at
k = 8), and a^-1 = a^(r-1) / a^r.  The norm a^r must come out in GF(p),
every higher coefficient zero, which is exactly a * a^-1 = 1, so the
inverse is checked before it is returned.  The Frobenius maps sigma^m of
the chain, like an embedding GF(p^k) -> GF(p^K), are GF(p)-linear: their
rows are the payloads of the powers of w^(p^m) (of the root, for an
embedding), and each map is written out the same way, one dot product
with the row constants and one % p per column, so an image takes no field
operation.  Prime fields multiply as (a*b) % p.  A power is taken left to
right from its base, one squaring per bit after the leading one.  A square
root is Tonelli-Shanks, with q - 1 = 2^s t split and z^t, for the first
non-square z, taken once per field, and one powering a^((t-1)/2) per
root.  A rootless quadratic over GF(p^k), p odd, takes the square root of
its discriminant D in GF(p^k) and not in GF(p^2k): sqrt(D / n0) there, for
the first non-square n0, times s0 with s0^2 = n0, found once per field.

A matrix product does not go through FieldElement at all: it is one call
of the field's kernel, _matmul, on rows of payloads, which skips zero
terms.  The base version works term by term through the payload _mul and
_add, so a finite field takes its own product: (a*b) % p, the tables below
the cap or the written-out product above it.  Over Q each left row and each
right column is written as integers over the lcm of its denominators once
per product, so an entry is one integer dot and one gcd: the reductions are
delayed to one per entry, as in the delayed modular reduction of
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).

An identity L X = X R with L and R tridiagonal is decided without forming
either side, by _intertwining_failures, which returns the entries where
the sides differ: at most three products a side per entry, through _mul
and _add, then a payload comparison.  Over Q it needs no reduction at all.
Each column of X is written as integers over the lcm of its denominators
once, each row of L and each column of R over theirs, and an entry is
decided by comparing two integer dots, each times a per-row or
per-column factor: no gcd and no common denominator per entry.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    BadInput,
    NeedsFieldExtension,
    NonPrimeModulus,
    ReducibleModulus,
    ZeroToNegativePower,
)

MAX_EXTENSION_DEGREE = 8

# Extension fields of at most this order multiply and invert by log/antilog
# tables, built when the field is made.
TABLE_ORDER_CAP = 2**10


# ---------------------------------------------------------------------------
# field descriptions


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a field."""

    kind: str  # "rational" | "prime" | "extension"
    p: Optional[int] = None
    k: Optional[int] = None
    modulus: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {
            "kind": "extension",
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus),
        }

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise BadInput("field spec must be an object with a 'kind'")
        kind = obj["kind"]
        if kind == "rational":
            return FieldSpec("rational")
        if kind not in ("prime", "extension"):
            raise BadInput(f"unknown field kind {kind!r}")
        p = json_int(json_key(obj, "p", "field spec"), "p")
        if kind == "prime":
            return FieldSpec("prime", p=p)
        k = json_int(json_key(obj, "k", "field spec"), "k")
        modulus = json_key(obj, "modulus", "field spec")
        if not isinstance(modulus, list):
            raise BadInput("modulus must be a list of integers")
        return FieldSpec("extension", p=p, k=k,
                         modulus=tuple(json_int(c, "modulus entry") for c in modulus))


def json_key(obj: dict, key: str, what: str):
    """obj[key], or a BadInput naming the missing key."""
    if key not in obj:
        raise BadInput(f"{what} is missing {key!r}")
    return obj[key]


def json_int(value, name: str) -> int:
    """An integer read from JSON or given to ExtensionField; a float, a
    boolean or a string is refused, not converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadInput(f"{name} must be an integer, got {value!r}")
    return value


def parse_int(text: str, message: str) -> int:
    """int(text), or a BadInput with the message when text is no integer."""
    try:
        return int(text)
    except ValueError:
        raise BadInput(message) from None


# The most digits a number in a literal read from input may have: the
# interpreter's default limit on converting between int and decimal text,
# which it sets because the conversion takes time quadratic in the digits.
# Field.parse refuses a longer one by its digit count, in every field.
MAX_LITERAL_DIGITS = 4300
_DIGIT_RUN_RE = re.compile(r"\d+")


# Miller-Rabin to these bases (the first twelve primes) decides every n below
# CHARACTERISTIC_LIMIT exactly; larger characteristics are refused.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
CHARACTERISTIC_LIMIT = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n >= CHARACTERISTIC_LIMIT:
        raise BadInput(f"{n} is too large: the characteristic must be below 2^64")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    t, s = n - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomials over a field F, on payloads
# (lists of canonical payloads of F, low degree first, trailing zeros trimmed)


def _ptrim(F: "Field", a: list) -> list:
    zero = F.zero_value
    while a and a[-1] == zero:
        a.pop()
    return a


def _psub(F: "Field", a: Sequence, b: Sequence) -> list:
    zero, sub = F.zero_value, F._sub
    n = max(len(a), len(b))
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return _ptrim(F, [sub(x, y) for x, y in zip(a, b)])


def _peval(F: "Field", a: Sequence, x):
    """The payload of a(x), by Horner's rule."""
    acc, add, mul = F.zero_value, F._add, F._mul
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def _pmod(F: "Field", a: Sequence, m: Sequence) -> list:
    """The remainder of a by the nonzero trimmed m.  A monic m takes no
    inverse: above the table cap an inverse is an Itoh-Tsujii chain."""
    zero, mul, sub = F.zero_value, F._mul, F._sub
    lead = None if m[-1] == F.one_value else F._inv(m[-1])
    r = list(a)
    dm = len(m) - 1
    for top in range(len(r) - 1, dm - 1, -1):
        c = r[top]
        if c != zero:
            if lead is not None:
                c = mul(c, lead)
            for i in range(dm):
                r[top - dm + i] = sub(r[top - dm + i], mul(c, m[i]))
    return _ptrim(F, r[:dm])


def _pmulmod(F: "Field", a: Sequence, b: Sequence, m: Sequence) -> list:
    if not a or not b:
        return []
    zero, add, mul = F.zero_value, F._add, F._mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return _pmod(F, out, m)


def _ppowmod(F: "Field", a: Sequence, n: int, m: Sequence) -> list:
    """a^n mod m, for m of degree at least 1."""
    result, base = [F.one_value], _pmod(F, a, m)
    while n:
        if n & 1:
            result = _pmulmod(F, result, base, m)
        base = _pmulmod(F, base, base, m)
        n >>= 1
    return result


def _pgcd(F: "Field", a: Sequence, b: Sequence) -> list:
    """The monic gcd of two trimmed polynomials; [] when both are zero."""
    while b:
        a, b = b, _pmod(F, a, b)
    if not a or a[-1] == F.one_value:
        return list(a)
    lead, mul = F._inv(a[-1]), F._mul
    return [mul(c, lead) for c in a]


def _fold_rows(modulus: Sequence[int], p: int) -> tuple[tuple[int, int, int], ...]:
    """The rows x^(k+j) mod the monic modulus of degree k, 0 <= j <= k-2, as
    one (k + j, i, c) triple per nonzero coefficient c of x^i in row j."""
    F, k = prime_field(p), len(modulus) - 1
    return tuple(
        (k + j, i, c)
        for j in range(k - 1)
        for i, c in enumerate(_pmod(F, [0] * (k + j) + [1], modulus)) if c
    )


def _irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin's test: the monic f of degree k is irreducible over GF(p) iff
    x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1 for each prime r | k."""
    F, f = prime_field(p), list(modulus)
    k = len(f) - 1
    x = _pmod(F, [0, 1], f)

    def frobenius_minus_x(n: int) -> list[int]:  # x^(p^n) - x mod f
        return _psub(F, _ppowmod(F, x, p**n, f), x)

    if frobenius_minus_x(k):
        return False
    return all(len(_pgcd(F, f, frobenius_minus_x(k // r))) == 1
               for r in range(2, k + 1) if k % r == 0 and _is_prime(r))


# ---------------------------------------------------------------------------
# elements


class FieldElement:
    """Immutable element of a Field; supports +, -, *, /, ** and ==.

    Every operator first tries the same-field fast path (the other operand is
    a FieldElement of this very field object) and only otherwise goes through
    _coerced, the one slow path: _coerce accepts an int or an element of a
    field with an equal spec and refuses any other field."""

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        """other as an element of this very field object: an int, or an
        element of a field with an equal spec rebuilt here; None for any
        other type, and a ValueError for another field."""
        if isinstance(other, FieldElement):
            if other.field.spec != self.field.spec:
                raise ValueError(
                    f"mixed fields: {self.field} and {other.field}"
                )
            return self.field._elements[other.value]
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def _coerced(self, op: str, other):
        """The slow path of every binary operator: other coerced, then the
        operator as this class defines it, from the snapshot taken when the
        module loads, so that a wrapper set on the class later (a counting
        tracer) sees one call per operation.  The coerced operand lies in
        this field, so the call takes the fast path."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _OPERATORS[op](self, other)

    def __add__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            return self._coerced("__add__", other)
        return field._elements[field._add(self.value, other.value)]

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            return self._coerced("__sub__", other)
        return field._elements[field._sub(self.value, other.value)]

    def __rsub__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            return self._coerced("__rsub__", other)
        return field._elements[field._sub(other.value, self.value)]

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            return self._coerced("__mul__", other)
        return field._elements[field._mul(self.value, other.value)]

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            return self._coerced("__truediv__", other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            return self._coerced("__rtruediv__", other)
        return other * self.inverse()

    def __neg__(self):
        field = self.field
        return field._elements[field._neg(self.value)]

    def __pow__(self, n: int):
        return self.field.pow(self, n)

    def inverse(self) -> "FieldElement":
        field = self.field
        return field._elements[field._checked_inv(self.value)]

    def __bool__(self):
        return self.value != self.field.zero_value

    def __eq__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            return self._coerced("__eq__", other)
        return self.value == other.value

    def __hash__(self):
        return hash((self.field.spec_hash, self.value))

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return f"<{self} in {self.field}>"


_OPERATORS = dict(vars(FieldElement))
_set_field = FieldElement.field.__set__
_set_value = FieldElement.value.__set__
_new_element = object.__new__


class _Fresh:
    """payload -> a new element of the field, built by the slot descriptors
    without the cost of a constructor call: the `_elements` of Q and of the
    finite fields above TABLE_ORDER_CAP, whose memory must not grow with
    use."""

    __slots__ = ("field",)

    def __init__(self, field: "Field"):
        self.field = field

    def __getitem__(self, value) -> FieldElement:
        e = _new_element(FieldElement)
        _set_field(e, self.field)
        _set_value(e, value)
        return e


class _Interned(dict):
    """payload -> the one element with that payload of a field of order at
    most TABLE_ORDER_CAP, built the first time it is asked for, so a stored
    one is a dict hit that runs no Python code."""

    __slots__ = ("field",)
    __init__ = _Fresh.__init__

    def __missing__(self, value) -> FieldElement:
        e = self[value] = _Fresh.__getitem__(self, value)
        return e


def _nonzero_terms(rows, zero) -> list[list[tuple[int, object]]]:
    """For each row, the (j, x) pairs of its entries x other than zero."""
    return [[(j, x) for j, x in enumerate(row) if x != zero] for row in rows]


def _band_terms(zero, diagonal, below=(), above=()) -> list[list[tuple[int, object]]]:
    """For each row of the tridiagonal matrix with these diagonals, below[i]
    at (i + 1, i) and above[i] at (i, i + 1) as `SquareMatrix.diagonal`
    takes them, the (k, x) pairs of its entries x other than zero, in
    column order.  Its columns are _band_terms(zero, diagonal, above,
    below)."""
    rows = [[(i, x)] if x != zero else [] for i, x in enumerate(diagonal)]
    for i, x in enumerate(below):
        if x != zero:
            rows[i + 1].insert(0, (i, x))
    for i, x in enumerate(above):
        if x != zero:
            rows[i].append((i + 1, x))
    return rows


def _int_products(left, right) -> Iterator[list[int]]:
    """The rows of the product of two int matrices, each given by the
    nonzero terms of its rows, with no reduction: each nonzero left[i][k]
    is multiplied into the nonzero entries of right[k]."""
    n = len(right)
    for row in left:
        acc = [0] * n
        for k, a in row:
            for j, b in right[k]:
                acc[j] += a * b
        yield acc


class Field:
    """Common behaviour; concrete fields fill in the payload operations."""

    spec: FieldSpec
    spec_hash: int  # hash(spec), taken once
    zero_value: object  # payloads of zero() and one()
    one_value: object
    _elements: object  # payload -> element, by subscript
    _interned: Optional[dict]  # _elements where it keeps what it builds

    def __init__(self, spec: FieldSpec, zero_value, one_value):
        self.spec = spec
        self.spec_hash = hash(spec)
        self.zero_value = zero_value
        self.one_value = one_value
        order = self.order()
        self._interned = _Interned(self) if order and order <= TABLE_ORDER_CAP else None
        self._elements = _Fresh(self) if self._interned is None else self._interned

    # payload-level hooks -------------------------------------------------
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _checked_inv(self, a):
        """The payload of 1/a, and ZeroDivisionError for the zero payload,
        which `_inv` does not check: the one inverse that code outside a
        field's arithmetic takes, of an element or of a payload."""
        if a == self.zero_value:
            raise ZeroDivisionError(f"division by zero in {self}")
        return self._inv(a)

    def _matmul(self, left, right):
        """The payload rows of the matrix product of two square matrices
        given by payload rows.  This version works term by term through
        _mul and _add (`_term_products`); the rationals delay their
        reductions."""
        zero = self.zero_value
        return self._term_products(_nonzero_terms(left, zero), _nonzero_terms(right, zero))

    def _term_products(self, left, right):
        """The payload rows of the product of two square matrices, each
        given by the nonzero terms of its rows.  Each nonzero left[i][k] is
        multiplied into the nonzero entries of right[k], and each output
        entry starts from its first product, so zero terms cost one test
        and nothing else."""
        zero, mul, add = self.zero_value, self._mul, self._add
        out = []
        for row in left:
            acc = [None] * len(right)
            for k, a in row:
                for j, b in right[k]:
                    t = acc[j]
                    acc[j] = mul(a, b) if t is None else add(t, mul(a, b))
            out.append(tuple([zero if x is None else x for x in acc]))
        return tuple(out)

    def _intertwining_failures(self, L, X, R) -> list[tuple[int, int]]:
        """The entries (i, j), row by row, where (L X)[i][j] != (X R)[i][j].
        L and R are tridiagonal, each given by the payloads of its
        (diagonal, below, above) as `SquareMatrix.diagonal` takes them, and
        X by payload rows.  Each side is a band times X or X times a band:
        at most three `_mul` an entry on each side, and no kernel call.
        Equal rows are passed over by one tuple comparison each."""
        zero = self.zero_value
        X = _nonzero_terms(X, zero)
        left = self._term_products(_band_terms(zero, *L), X)
        right = self._term_products(X, _band_terms(zero, *R))
        return [(i, j) for i, (got, want) in enumerate(zip(left, right)) if got != want
                for j, (x, y) in enumerate(zip(got, want)) if x != y]

    # shared API -----------------------------------------------------------
    def zero(self) -> FieldElement:
        return self._elements[self.zero_value]

    def one(self) -> FieldElement:
        return self._elements[self.one_value]

    def from_int(self, n: int) -> FieldElement:
        raise NotImplementedError

    def pow(self, a: FieldElement, n: int) -> FieldElement:
        """a**n by left-to-right binary powering, which starts from a and
        not from one; n may be negative for nonzero a.  For n > 0 it takes
        one squaring per bit of n after the leading one and one product per
        set bit among them."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            if not a:
                raise ZeroToNegativePower(f"0**{n} in {self}")
            a = a.inverse()
            n = -n
        if not n:
            return self.one()
        result = a
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * a
        return result

    def characteristic(self) -> int:
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Number of elements, or None for the rationals."""
        return None

    def is_finite(self) -> bool:
        return self.order() is not None

    def elements(self) -> Iterator[FieldElement]:
        if not self.is_finite():
            raise TypeError(f"{self} is not finite")
        return map(self.element, range(self.order()))

    def element(self, index: int) -> FieldElement:
        raise TypeError(f"{self} is not finite")

    def index_of(self, a: FieldElement) -> int:
        raise TypeError(f"{self} is not finite")

    def parse(self, text: str) -> FieldElement:
        """The element a literal names, or a BadInput when the literal is
        malformed or a number in it has more than MAX_LITERAL_DIGITS digits."""
        if len(text) > MAX_LITERAL_DIGITS:
            digits = max(map(len, _DIGIT_RUN_RE.findall(text)), default=0)
            if digits > MAX_LITERAL_DIGITS:
                raise BadInput(f"a number in a literal may have at most "
                               f"{MAX_LITERAL_DIGITS} digits, got {digits}")
        return self._parse(text)

    def _parse(self, text: str) -> FieldElement:
        raise NotImplementedError

    def format(self, a: FieldElement) -> str:
        raise NotImplementedError

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        return self.element(rng.randrange(1 if nonzero else 0, self.order()))

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return self.spec_hash


# Every interpreter limit on int-to-decimal conversion is at least 640
# digits, so str() takes any int below this bound.
_STR_BOUND = 10**600


def _decimal(n: int) -> str:
    """str(n), also past the interpreter's int-to-decimal digit limit: an
    int beyond _STR_BOUND is split on a power of ten near half its digits,
    and the halves are printed."""
    if -_STR_BOUND < n < _STR_BOUND:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # below half the digits, as log10(2) > 0.3
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")  # no zero denominator
_INT_RE = re.compile(r"^[+-]?\d+$")


class RationalField(Field):
    """Q, with payload (n, d): n/d in lowest terms, d > 0, zero as (0, 1).

    The sum and the product split off gcds before they multiply (Knuth, TAOCP
    vol. 2, 4.5.1), so that their results come out in lowest terms without a
    final gcd of the full-size numerator and denominator."""

    def __init__(self):
        super().__init__(FieldSpec("rational"), (0, 1), (1, 1))

    def _add(self, a, b):
        na, da = a
        nb, db = b
        g = gcd(da, db)
        if g == 1:
            return (na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return (t, s * db)
        return (t // g2, s * (db // g2))

    def _sub(self, a, b):
        na, da = a
        nb, db = b
        g = gcd(da, db)
        if g == 1:
            return (na * db - nb * da, da * db)
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return (t, s * db)
        return (t // g2, s * (db // g2))

    def _mul(self, a, b):
        na, da = a
        nb, db = b
        g1 = gcd(na, db)
        if g1 != 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 != 1:
            nb //= g2
            da //= g2
        return (na * nb, da * db)

    def _neg(self, a):
        return (-a[0], a[1])

    def _inv(self, a):
        n, d = a
        return (-d, -n) if n < 0 else (d, n)

    def _matmul(self, left, right):
        # Each row of the left factor and each column of the right one is
        # written as integers over the lcm of its denominators, so every
        # entry is one integer dot over a known denominator and one gcd.
        # One comprehension per factor scales its entries and drops the
        # zero terms, whose numerator is 0.
        col_den = [lcm(*[d for _, d in col]) for col in zip(*right)]
        right = [[(j, n * (col_den[j] // d)) for j, (n, d) in enumerate(row) if n]
                 for row in right]
        left = [(r, [(k, n * (r // d)) for k, (n, d) in enumerate(row) if n])
                for row in left for r in (lcm(*[d for _, d in row]),)]
        out = []
        for acc, (r, _) in zip(_int_products([terms for _, terms in left], right), left):
            out_row = []
            for t, c in zip(acc, col_den):
                if t:
                    den = r * c
                    g = gcd(t, den)
                    out_row.append((t // g, den // g))
                else:
                    out_row.append((0, 1))
            out.append(tuple(out_row))
        return tuple(out)

    def _intertwining_failures(self, L, X, R) -> list[tuple[int, int]]:
        # Each column j of X is written as integers over the lcm c_j of its
        # denominators, once, and each row i of L over the lcm l_i of its
        # own, so (L X)[i][j] is an int dot s over l_i c_j.  Column j of R,
        # over the lcm m_j of its denominators, is further scaled to the lcm
        # c_j e_j of the c_k of the rows k it meets and of c_j, so (X R)[i][j]
        # is an int dot t of the same integers over c_j e_j m_j.  An entry
        # is then decided by s e_j m_j != t l_i: dots of at most three
        # terms, two products by per-row and per-column factors, and no
        # gcd.
        c = [lcm(*[d for _, d in col]) for col in zip(*X)]
        X = [[(j, n * (c[j] // d)) for j, (n, d) in enumerate(row) if n] for row in X]
        rows, l_den = [], []
        for row in _band_terms((0, 1), *L):
            l = lcm(*[d for _, (_, d) in row])
            rows.append([(k, n * (l // d)) for k, (n, d) in row])
            l_den.append(l)
        diagonal, below, above = R
        w, f = [[] for _ in c], []
        for j, col in enumerate(_band_terms((0, 1), diagonal, above, below)):
            m = lcm(*[d for _, (_, d) in col])
            e = lcm(c[j], *[c[k] for k, _ in col])
            f.append(e // c[j] * m)
            for k, (n, d) in col:
                w[k].append((j, n * (m // d) * (e // c[k])))
        return [(i, j) for i, (s, t, l) in enumerate(zip(_int_products(rows, X),
                                                         _int_products(X, w), l_den))
                for j, (x, y, e) in enumerate(zip(s, t, f)) if x * e != y * l]

    def from_int(self, n: int) -> FieldElement:
        return self._elements[(n, 1)]

    def characteristic(self) -> int:
        return 0

    def _parse(self, text: str) -> FieldElement:
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise BadInput(f"not a rational literal: {text!r}")
        n, _, d = text.partition("/")
        n, d = int(n), int(d or 1)
        g = gcd(n, d)
        return self._elements[(n // g, d // g)]

    def format(self, a: FieldElement) -> str:
        n, d = a.value
        return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        while True:
            n, d = rng.randint(-8, 8), rng.randint(1, 6)
            if n or not nonzero:
                g = gcd(n, d)
                return self._elements[(n // g, d // g)]

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        super().__init__(FieldSpec("prime", p=p), 0, 1)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def from_int(self, n: int) -> FieldElement:
        return self._elements[n % self.p]

    def characteristic(self) -> int:
        return self.p

    def order(self) -> int:
        return self.p

    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.p:
            raise IndexError(index)
        return self._elements[index]

    def index_of(self, a: FieldElement) -> int:
        return a.value

    def _parse(self, text: str) -> FieldElement:
        text = text.strip()
        if not _INT_RE.match(text):
            raise BadInput(f"not a residue literal: {text!r}")
        return self._elements[int(text) % self.p]

    def format(self, a: FieldElement) -> str:
        return str(a.value)

    def __repr__(self):
        return f"GF({self.p})"


_EXT_TERM_RE = re.compile(r"^(\d+)(?:\*w(?:\^(\d+))?)?$")


class ExtensionField(Field):
    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        for c in (p, k, *modulus):  # only ints reach the written-out source
            json_int(c, "every extension field parameter")
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if k < 2:
            raise BadInput("extension degree must be at least 2")
        if k > MAX_EXTENSION_DEGREE:
            raise BadInput(f"extension degree {k} exceeds the supported maximum "
                           f"{MAX_EXTENSION_DEGREE}")
        if len(modulus) != k + 1:
            raise BadInput("modulus must have k+1 coefficients, low degree first")
        mod = tuple(c % p for c in modulus)
        if mod[-1] != 1:
            raise BadInput("modulus must be monic")
        if not _irreducible(mod, p):
            raise ReducibleModulus(
                f"modulus {list(mod)} is reducible over GF({p})"
            )
        self.p = p
        self.k = k
        self.modulus = mod
        self._int_tail = (0,) * (k - 1)  # the payload of n is (n % p,) + this
        self._add, self._sub, self._neg = _sum_ops(p, k)
        self._mul = _product(p, k, _fold_rows(mod, p))
        super().__init__(FieldSpec("extension", p=p, k=k, modulus=mod),
                         (0,) * k, (1,) + (0,) * (k - 1))
        # The class's _inv is the Itoh-Tsujii inverse; below the cap the
        # instance shadows it, and the written-out product, by tables.
        if p**k <= TABLE_ORDER_CAP:
            self._mul, self._inv = _table_ops(self)
            return
        self._frobenius, self._chain = _itoh_tsujii_chain(self)

    def _inv(self, a):
        # Itoh-Tsujii: with r = (p^k - 1)/(p - 1), a^(r-1) is the product
        # of the conjugates a^(p^i), 1 <= i < k, and the norm a^r lies in
        # GF(p), so a^-1 = a^(r-1) / a^r.  The chain builds
        # t_m = a^(p + ... + p^m) from t_1 = a^p by t_2m = t_m * sigma^m(t_m)
        # and t_(m+1) = sigma(a * t_m), sigma being the Frobenius map.
        mul, frobenius = self._mul, self._frobenius
        t = frobenius(a)
        for sigma in self._chain:
            t = mul(t, sigma(t)) if sigma else frobenius(mul(a, t))
        norm = mul(a, t)
        # a norm in GF(p)* is the statement a * (t / norm) = 1, so this
        # checks the inverse before it is returned
        if not norm[0] or any(norm[1:]):
            raise RuntimeError(f"{a} has norm {norm} in {self}")
        p = self.p
        c = pow(norm[0], -1, p)
        return tuple([x * c % p for x in t])

    def _linear_map(self, rows, role: str) -> Callable[[tuple], tuple]:
        """The GF(p)-linear map of payloads x -> sum_i x_i rows[i], for
        len(x) = len(rows) rows that are payloads of this field, written out
        as one dot product and one % p per column; `role` names the map in
        its profile label (`frobenius^2`, `from GF(2^4)`)."""
        xs = [f"x{i:d}" for i in range(len(rows))]
        return _compiled(f"{self} {role}", "image", "x", [f"[{', '.join(xs)}] = x"],
                         [_residue_sum(zip(xs, col), self.p) for col in zip(*rows)])

    def from_int(self, n: int) -> FieldElement:
        return self._elements[(n % self.p,) + self._int_tail]

    def generator(self) -> FieldElement:
        """The residue w of the modulus root."""
        return self._elements[(0, 1) + (0,) * (self.k - 2)]

    def characteristic(self) -> int:
        return self.p

    def order(self) -> int:
        return self.p**self.k

    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.order():
            raise IndexError(index)
        return self._elements[_digits(index, self.p, self.k)]

    def index_of(self, a: FieldElement) -> int:
        n = 0
        for c in reversed(a.value):
            n = n * self.p + c
        return n

    def _parse(self, text: str) -> FieldElement:
        terms = text.strip().replace(" ", "").split("+")
        if len(terms) != self.k:
            raise BadInput(f"expected {self.k} terms 'c0+c1*w+...', got {text!r}")
        coeffs = []
        for i, term in enumerate(terms):
            m = _EXT_TERM_RE.match(term)
            if not m:
                raise BadInput(f"bad term {term!r} in {text!r}")
            power = 0 if m.group(2) is None and "*w" not in term else (
                1 if m.group(2) is None else int(m.group(2))
            )
            if power != i:
                raise BadInput(f"term {term!r} out of place in {text!r}")
            coeffs.append(int(m.group(1)) % self.p)
        return self._elements[tuple(coeffs)]

    def format(self, a: FieldElement) -> str:
        parts = []
        for i, c in enumerate(a.value):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*w")
            else:
                parts.append(f"{c}*w^{i}")
        return "+".join(parts)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _digits(n: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of n, low first: the payload of the element of
    GF(p^k) at index n."""
    out = []
    for _ in range(k):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def _residue_sum(terms, p: int) -> str:
    """The source of (sum of c*t) % p over the (t, c) pairs of a term t
    (a name or a product of names) and a residue c in [0, p): a zero c is
    left out, a c above p/2 is written as the term less p - c, and a factor
    1 is dropped; "0" when every c is zero.  Each c and p is written by
    :d, so only digits reach the source."""
    src = ""
    for t, c in terms:
        if c:
            sign, m = (" - ", p - c) if 2 * c > p else (" + ", c)
            src += sign + (t if m == 1 else f"{m:d}*{t}")
    if not src:
        return "0"
    return f"({src[3:] if src[1] == '+' else '-' + src[3:]}) % {p:d}"


def _compiled(field: str, name: str, params: str, body: list[str], outputs: list[str]):
    """The function name(params) written out as straight-line Python: the
    lines of body, then the return of the tuple of the outputs.  Its code
    is filed as `<leonard.fields FIELD NAME>` (`GF(3^4) mul`), so a profile
    keeps each field's function apart; fields of one order with different
    moduli share labels."""
    source = "\n    ".join([f"def {name}({params}):", *body,
                            f"return ({', '.join(outputs)},)"])
    namespace: dict = {}
    exec(compile(source, f"<leonard.fields {field} {name}>", "exec"), namespace)
    return namespace[name]


def _sum_ops(p: int, k: int):
    """The payload sum, difference and negative of GF(p^k), written out on
    the k coefficients: each output coefficient is one sum, difference or
    negative of names and one % p."""
    a = [f"a{i:d}" for i in range(k)]
    b = [f"b{i:d}" for i in range(k)]
    unpack = [f"[{', '.join(a)}] = a", f"[{', '.join(b)}] = b"]
    field = f"GF({p:d}^{k:d})"
    return (_compiled(field, "add", "a, b", unpack, [f"({x} + {y}) % {p:d}" for x, y in zip(a, b)]),
            _compiled(field, "sub", "a, b", unpack, [f"({x} - {y}) % {p:d}" for x, y in zip(a, b)]),
            _compiled(field, "neg", "a", unpack[:1], [f"-{x} % {p:d}" for x in a]))


def _product(p: int, k: int, fold) -> Callable[[tuple, tuple], tuple]:
    """The payload product of GF(p^k), written out for its modulus: the
    convolution coefficient h_j of degree j >= k is a sum of products of
    the coefficients a_i and b_i, and each coefficient of degree i < k is
    its own sum of products plus the h_j that the fold rows (the
    (j, i, c) triples of x^j mod the modulus) send to degree i, times c,
    reduced by one % p."""
    a = [f"a{i:d}" for i in range(k)]
    b = [f"b{i:d}" for i in range(k)]
    conv = [[f"{a[i]}*{b[j - i]}" for i in range(max(0, j - k + 1), min(j, k - 1) + 1)]
            for j in range(2 * k - 1)]
    low = [[(t, 1) for t in conv[i]] for i in range(k)]
    for j, i, c in fold:
        low[i].append((f"h{j:d}", c))
    body = [f"[{', '.join(a)}] = a", f"[{', '.join(b)}] = b"]
    body += [f"h{j:d} = {' + '.join(conv[j])}" for j in range(k, 2 * k - 1)]
    return _compiled(f"GF({p:d}^{k:d})", "mul", "a, b", body,
                     [_residue_sum(terms, p) for terms in low])


def _itoh_tsujii_chain(field: ExtensionField):
    """The Frobenius map sigma of the field and the steps of the addition
    chain on k - 1 that ExtensionField._inv takes: reading k - 1 in binary
    after its leading bit, each bit doubles m (the step is the map sigma^m)
    and a set bit then adds one (the step is None).  Each map is linear,
    built from the powers of w^(p^m), and w^p costs one powering."""
    p, k, mul, one = field.p, field.k, field._mul, field.one_value

    def powers(x, m):  # the payloads of x^i, 0 <= i < k: the rows of sigma^m
        rows = [one]
        for _ in range(k - 1):
            rows.append(mul(rows[-1], x))
        return field._linear_map(rows, f"frobenius^{m:d}")

    image, m = field.pow(field.generator(), p).value, 1  # sigma^m(w)
    frobenius = powers(image, m)
    chain = []
    for bit in bin(k - 1)[3:]:
        sigma = powers(image, m) if chain else frobenius  # the first m is 1
        chain.append(sigma)
        image, m = sigma(image), 2 * m
        if bit == "1":
            chain.append(None)
            image, m = frobenius(image), m + 1
    return frobenius, tuple(chain)


def _table_ops(field: ExtensionField):
    """Payload multiply and inverse of a finite extension field by table.

    The generator g is the first element of multiplicative order q - 1 in
    element order: each candidate's powers are walked with the written-out
    product, and the walk is used only if it comes back to one after exactly
    q - 1 distinct powers.  Then antilog[i] = g^i for 0 <= i < q - 1, and
    log is its inverse map."""
    n = field.order() - 1
    zero, one, product = field.zero_value, field.one_value, field._mul
    for index in range(1, n + 1):
        g = field.element(index).value
        antilog, x = [one], g
        while x != one and len(antilog) < n:
            antilog.append(x)
            x = product(x, g)
        log = {y: i for i, y in enumerate(antilog)}
        if x == one and len(log) == n:
            break
    else:  # unreachable: the multiplicative group of a finite field is cyclic
        raise RuntimeError(f"{field} has no element of order {n}")

    def mul(a, b):
        if a == zero or b == zero:
            return zero
        # log[a] + log[b] - n lies in [-n, n - 2], and a negative index
        # counts from the end: this is antilog[(log[a] + log[b]) % n]
        return antilog[log[a] + log[b] - n]

    def inv(a):
        return antilog[-log[a]]  # g^(n - i); antilog[-0] is one

    # one code object serves every field's closures; a copy per field named
    # for it keeps the fields apart in a profile
    for fn in (mul, inv):
        fn.__code__ = fn.__code__.replace(co_name=f"{field} {fn.__name__}")
    return mul, inv


# ---------------------------------------------------------------------------
# construction and cached lookup

_FIELD_CACHE: dict[FieldSpec, Field] = {}


def make_field(spec: FieldSpec) -> Field:
    """Build (or fetch) the field a spec describes, checking primality and
    irreducibility as needed.  Every spec of one field, canonical or not
    (a modulus with entries past p), gets the one object cached under the
    canonical spec the field carries."""
    cached = _FIELD_CACHE.get(spec)
    if cached is not None:
        return cached
    if spec.kind == "rational":
        field: Field = RationalField()
    elif spec.kind == "prime":
        field = PrimeField(spec.p)
    elif spec.kind == "extension":
        field = ExtensionField(spec.p, spec.k, spec.modulus)
    else:
        raise BadInput(f"unknown field kind {spec.kind!r}")
    field = _FIELD_CACHE[spec] = _FIELD_CACHE.setdefault(field.spec, field)
    return field


def rational_field() -> RationalField:
    return make_field(FieldSpec("rational"))  # type: ignore[return-value]


def prime_field(p: int) -> PrimeField:
    return make_field(FieldSpec("prime", p=p))  # type: ignore[return-value]


def extension_field(p: int, k: int, modulus: Sequence[int]) -> ExtensionField:
    return make_field(  # type: ignore[return-value]
        FieldSpec("extension", p=p, k=k, modulus=tuple(modulus))
    )


# ---------------------------------------------------------------------------
# quadratics, splitting fields, embeddings
# (classification support: everything here is exact and deterministic)


def quadratic_roots(
    field: Field, b: FieldElement, c: FieldElement
) -> Optional[tuple[FieldElement, FieldElement]]:
    """Roots of x^2 + b*x + c inside the field, or None.

    A double root is returned twice.  Finite fields return their roots in
    element order (sorted by index_of), each checked against the quadratic:
    in odd characteristic the discriminant passes Euler's criterion and
    Tonelli-Shanks takes its square root, with the field's constants (the
    2-adic split of q - 1 and a generator of its 2-Sylow subgroup) and the
    inverse of 2 taken once per field; in characteristic 2 the
    substitution x = b*y leaves y^2 + y = c/b^2, solved by the trace-one
    formula.  Q takes the odd-characteristic path too, its square root a
    perfect-square test of the discriminant, and returns the root with '+'
    sign first, unsorted and unchecked.
    """
    if field.characteristic() == 2:
        roots = _roots_char2(field, b, c)
    else:
        roots = _roots_odd(field, b, c)
    if roots is None or not field.is_finite():
        return roots
    return _checked_roots(field, b, c, roots)


def _checked_roots(field: Field, b: FieldElement, c: FieldElement, roots):
    """The two roots of x^2 + b*x + c in element order, each checked against
    the quadratic before it is returned."""
    for r in roots:
        if r * r + b * r + c:
            raise RuntimeError(f"{r} is not a root of x^2 + ({b})*x + ({c})")
    return tuple(sorted(roots, key=field.index_of))


@functools.cache
def _half(field: Field) -> FieldElement:
    """The inverse of 2, for a field of characteristic other than 2: above
    the table cap an inverse is an Itoh-Tsujii chain."""
    return field.from_int(2).inverse()


def _roots_odd(field: Field, b: FieldElement, c: FieldElement):
    half = _half(field)
    disc = b * b - 4 * c
    if not disc:
        return (-b * half,) * 2
    root = _sqrt(field, disc)
    if root is None:
        return None
    return ((-b + root) * half, (-b - root) * half)


def _sqrt(field: Field, a: FieldElement) -> Optional[FieldElement]:
    """A square root of the nonzero a in Q or a finite field of odd order;
    None when a is not a square.

    Over Q, a = num/den is in lowest terms, so it is a square iff num and
    den both are.  A finite field takes Tonelli-Shanks: with q - 1 = 2^s t,
    t odd, the constants t, s and z^t, for the first non-square z, are
    taken once per field.  One powering gives y = a^((t-1)/2), and then
    x = a^((t+1)/2) = y*a and e = a^t = y*x."""
    if not field.is_finite():
        num, den = a.value
        rn, rd = isqrt(max(num, 0)), isqrt(den)
        return field._elements[rn, rd] if (rn * rn, rd * rd) == (num, den) else None
    t, s, zt = _tonelli_shanks_constants(field)
    one = field.one()
    y = a ** ((t - 1) // 2)
    x = y * a
    e = y * x  # x^2 = a*e, and e has order 2^i with i <= s
    g = zt
    m = s
    while e != one:
        i, e2 = 0, e
        while e2 != one:
            e2 = e2 * e2
            i += 1
        if i == m:
            # only on the first pass: a^((q-1)/2) = e^(2^(s-1)) != 1
            return None
        for _ in range(m - i - 1):
            g = g * g
        x = x * g
        g = g * g
        e = e * g
        m = i
    return x


@functools.cache
def _tonelli_shanks_constants(field: Field) -> tuple[int, int, FieldElement]:
    """(t, s, z^t) for a field of odd order q, where q - 1 = 2^s t with t
    odd and z is the first non-square: z^t generates the 2-Sylow subgroup
    of the multiplicative group."""
    t, s = field.order() - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    return t, s, _first_nonsquare(field) ** t


@functools.cache
def _first_nonsquare(field: Field) -> FieldElement:
    """First non-square in element order, for a field of odd order.

    An extension of even degree holds all of GF(p) among its squares, so the
    search starts past the prime subfield there."""
    q = field.order()
    even_extension = field.spec.kind == "extension" and field.spec.k % 2 == 0
    for index in range(field.spec.p if even_extension else 2, q):
        z = field.element(index)
        if z ** ((q - 1) // 2) != field.one():
            return z
    raise RuntimeError(f"{field} has no non-square")  # unreachable


def _roots_char2(field: Field, b: FieldElement, c: FieldElement):
    n = field.spec.k or 1  # field is GF(2^n)
    if not b:
        # the square root of c is c^(2^(n-1)), since c^(2^n) = c
        r = c
        for _ in range(n - 1):
            r = r * r
        return (r, r)
    # x = b*y turns the quadratic into y^2 + y = u, solvable iff Tr(u) = 0
    u = c / (b * b)
    conj = _conjugates(u, 2, n)
    if sum(conj, field.zero()):
        return None
    # With Tr(delta) = 1, y = sum_{i=1}^{n-1} (delta + ... + delta^(2^(i-1)))
    # u^(2^i) has y^2 + y = u + delta*Tr(u) = u.  For odd n, delta = 1 and y
    # is the half-trace.
    delta = _trace_one(field)
    y = a = field.zero()
    for ui in conj[1:]:
        a = a + delta
        delta = delta * delta
        y = y + a * ui
    return (b * y, b * y + b)


@functools.cache
def _trace_one(field: Field) -> FieldElement:
    """First element of absolute trace 1 in element order, for GF(2^n).  The
    trace is linear, so it is a power w^j, at index 2^j."""
    n = field.spec.k or 1
    return next(x for x in (field.element(2**j) for j in range(n))
                if sum(_conjugates(x, 2, n), field.zero()))


def _conjugates(x: FieldElement, p: int, n: int) -> list[FieldElement]:
    """x, x^p, ..., x^(p^(n-1)): the Frobenius orbit of x over GF(p)."""
    out = [x]
    for _ in range(n - 1):
        out.append(out[-1] ** p)
    return out


@functools.cache
def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over GF(p) in coefficient order.

    The first p candidates are the binomials x^k + c, c < p, decided by
    Lidl-Niederreiter Thm 3.75: x^k - a is irreducible iff every prime r | k
    divides p - 1 with a^((p-1)/r) != 1, and 4 | p - 1 when 4 | k.  So the
    block costs nothing when no binomial qualifies and a few powerings when
    one does.  Past it, candidates go through Rabin's test in index order.
    Every answer passes Rabin's test before it is returned."""
    primes = [r for r in range(2, k + 1) if k % r == 0 and _is_prime(r)]
    if all((p - 1) % r == 0 for r in primes) and (k % 4 or (p - 1) % 4 == 0):
        for c in range(1, p):
            if all(pow(-c % p, (p - 1) // r, p) != 1 for r in primes):
                binomial = (c,) + (0,) * (k - 1) + (1,)
                if not _irreducible(binomial, p):  # unreachable by the theorem
                    raise RuntimeError(f"x^{k} + {c} is reducible over GF({p})")
                return binomial
    for idx in range(p, p**k):
        cand = _digits(idx, p, k) + (1,)
        if _irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # unreachable


def _identity(x: FieldElement) -> FieldElement:
    """The embedding of a field into itself."""
    return x


@functools.cache
def embed_map(src: Field, dst: Field) -> Callable[[FieldElement], FieldElement]:
    """A field homomorphism src -> dst (identity when the specs agree).

    Supported: GF(p) into GF(p^k), and GF(p^k) into GF(p^K) with k | K.  The
    image of w is the root of the source modulus that comes first in
    destination element order, so the map is deterministic: equal-degree
    splitting (Cantor-Zassenhaus) finds one root, and the smallest of its
    Frobenius conjugates is returned.
    """
    if src.spec == dst.spec:
        return _identity
    if src.spec.kind == "prime" and dst.spec.kind == "extension" and src.spec.p == dst.spec.p:
        def lift(x: FieldElement, dst=dst) -> FieldElement:
            return dst.from_int(x.value)

        return lift
    if (
        src.spec.kind == "extension"
        and dst.spec.kind == "extension"
        and src.spec.p == dst.spec.p
        and dst.spec.k % src.spec.k == 0
    ):
        mod = [dst.from_int(coef).value for coef in src.spec.modulus]
        root = dst._elements[_split_off_root(mod, dst)]
        if _peval(dst, mod, root.value) != dst.zero_value:
            raise RuntimeError(f"{root} is not a root of the modulus of {src}")
        # the roots of the irreducible modulus are the conjugates of any one
        root = min(_conjugates(root, src.spec.p, src.spec.k), key=dst.index_of)
        powers = [dst.one()]
        for _ in range(src.spec.k - 1):
            powers.append(powers[-1] * root)
        # the map is GF(p)-linear: x goes to sum_i x_i root^i
        linear = dst._linear_map([pw.value for pw in powers], f"from {src}")

        def lift(x: FieldElement, dst=dst, linear=linear) -> FieldElement:
            return dst._elements[linear(x.value)]

        return lift
    raise ValueError(f"no embedding of {src} into {dst}")


def _split_off_root(f: list, dst: Field):
    """The payload of one root of the monic f, given by payloads, a product
    of distinct linear factors over the finite field dst, by equal-degree
    splitting.

    Each step takes the next delta in element order and keeps the proper
    factor gcd(f, s) when there is one, where s is (x + delta)^((Q-1)/2) - 1
    in odd characteristic and the trace sum_i (delta*x)^(2^i) in
    characteristic 2 (Q = |dst| = 2^K).  The deltas start past the prime
    subfield GF(p): the roots lie in a subfield E, and for delta in GF(p)
    so do r + delta and delta*r, which are all squares, or all of trace 0,
    when [dst : E] is even; no such delta would split f, and walking the p
    of them costs time exponential in log p.

    In characteristic 2 the trace of delta*r is Tr_E(r Tr_{dst/E}(delta)),
    the same for every conjugate r when Tr_{dst/E}(delta) lies in GF(2).
    Those deltas form a proper GF(2)-subspace that holds 1, so one of the
    basis powers w^j, 1 <= j < K, lies outside it: they are tried first,
    at indices 2^j, and then the rest in element order.
    """
    one = dst.one_value
    indices = range(dst.characteristic(), dst.order())
    if dst.characteristic() == 2:
        indices = itertools.chain((2**j for j in range(1, dst.spec.k)),
                                  (i for i in indices if i & (i - 1)))
    deltas = (dst.element(i).value for i in indices)
    while len(f) > 2:
        delta = next(deltas)
        if dst.characteristic() == 2:
            # subtraction is addition in characteristic 2, so s - t is s + t
            t, s = _pmod(dst, [dst.zero_value, delta], f), []
            for _ in range(dst.spec.k):
                s = _psub(dst, s, t)
                t = _pmulmod(dst, t, t, f)
        else:
            s = _psub(dst, _ppowmod(dst, [delta, one], (dst.order() - 1) // 2, f), [one])
        h = _pgcd(dst, f, s)
        if 2 <= len(h) < len(f):
            f = h
    return dst._neg(f[0])


def splitting_field(
    field: Field, b: FieldElement, c: FieldElement
) -> tuple[Field, Callable[[FieldElement], FieldElement], tuple[FieldElement, FieldElement]]:
    """Field E where x^2 + b*x + c splits, an embedding into it, and the roots.

    Returns the field itself with the identity map when the roots are already
    present.  Over Q, or past the supported extension degree, raises
    NeedsFieldExtension carrying the quadratic.  Over GF(p) the roots are
    w and -b - w in GF(p)[x] / (x^2 + b*x + c).  Over GF(p^k), p odd, E is
    GF(p^2k), and the square root of the discriminant D is taken in the
    ground field: D / n0 is a square there for the first non-square n0, and
    sqrt(D) = s0 * sqrt(D / n0), with s0^2 = n0 in E found once per field.
    Over GF(2^k) the roots are found in E by quadratic_roots.  Either way
    they come in element order, each checked against the quadratic.
    """
    roots = quadratic_roots(field, b, c)
    if roots is not None:
        return field, _identity, roots
    if not field.is_finite():
        raise NeedsFieldExtension(
            f"x^2 + ({b})*x + ({c}) has no roots in {field}", b=b, c=c
        )
    if field.spec.kind == "prime":
        ext = extension_field(field.spec.p, 2, (c.value, b.value, 1))
        lift = embed_map(field, ext)
        r1 = ext.generator()
        r2 = -lift(b) - r1
        return ext, lift, (r1, r2)
    k2 = field.spec.k * 2
    if k2 > MAX_EXTENSION_DEGREE:
        raise NeedsFieldExtension(
            f"splitting x^2 + ({b})*x + ({c}) needs degree {k2} over "
            f"GF({field.spec.p}), past the supported maximum",
            b=b,
            c=c,
        )
    ext = extension_field(field.spec.p, k2, _find_irreducible(field.spec.p, k2))
    lift = embed_map(field, ext)
    if field.characteristic() == 2:
        roots = quadratic_roots(ext, lift(b), lift(c))
        if roots is None:  # cannot happen: a quadratic splits one step up
            raise RuntimeError("quadratic failed to split in its splitting field")
        return ext, lift, roots
    # The discriminant D is a non-square of the field, and so is n0: D / n0
    # is a square there, and sqrt(D) = s0 * lift(sqrt(D / n0)).
    n0_inv, s0 = _nonsquare_root(field, ext)
    half = _half(field)
    root = _sqrt(field, (b * b - 4 * c) * n0_inv)
    if root is None:  # cannot happen: a quotient of two non-squares is a square
        raise RuntimeError(f"x^2 + ({b})*x + ({c}) has a square discriminant in {field}")
    u, v = lift(-b * half), s0 * lift(root * half)
    return ext, lift, _checked_roots(ext, lift(b), lift(c), (u + v, u - v))


@functools.cache
def _nonsquare_root(field: Field, ext: Field) -> tuple[FieldElement, FieldElement]:
    """For a finite field of odd order and its quadratic extension ext: the
    inverse of n0, the first non-square of the field, and a square root s0
    of n0 in ext, where every element of the field is a square."""
    n0 = _first_nonsquare(field)
    s0 = _sqrt(ext, embed_map(field, ext)(n0))
    if s0 is None:  # unreachable
        raise RuntimeError(f"{n0} has no square root in {ext}")
    return n0.inverse(), s0
