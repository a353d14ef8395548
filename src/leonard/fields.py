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
each element by the slot descriptors directly.  A quadratic extension adds,
subtracts and negates on its two coefficients written out, not by a
k-term comprehension.  Every payload is canonical, so equal elements have
equal payloads and equal hashes.  Rationals add and multiply on their
(n, d) pairs with the gcd-splitting sum and product of Knuth (TAOCP vol. 2,
4.5.1).  An extension field of order at most TABLE_ORDER_CAP (2^10)
multiplies and inverts by log/antilog tables built when it is made: the
generator is the first element of multiplicative order q - 1 in element
order, found by walking each candidate's powers with the Kronecker product
below, accepted only when the walk returns to one after exactly q - 1
distinct powers.
Larger extensions multiply by Kronecker substitution: a precompiled struct
packs each payload into one int at 1, 2, 4 or 8 bytes per coefficient, the
fewest that hold k(p-1)^2, the largest convolution coefficient, so one int
product carries no digit into the next and is the convolution; one unpack
gives its 2k - 1 coefficients, degrees k..2k-2 fold down through the rows
of x^(k+j) mod the modulus, stored once per field as sparse triples, and
each output coefficient takes one % p.  Where no width of 8 bytes holds
k(p-1)^2, the convolution is summed term by term before the same fold.
They invert by Itoh-Tsujii (Inform. and Comput. 78(3), 1988): with
r = (p^k - 1)/(p - 1), a^(r-1) is the product of the conjugates a^(p^i),
0 < i < k, taken by an addition chain on k - 1 (at most 4 products at
k = 8), and a^-1 = a^(r-1) / a^r.  The norm a^r must come out in GF(p),
every higher coefficient zero, which is exactly a * a^-1 = 1, so the
inverse is checked before it is returned.  The Frobenius maps sigma^m of
the chain, like an embedding GF(p^k) -> GF(p^K), are GF(p)-linear: their
rows are the payloads of the powers of w^(p^m) (of the root, for an
embedding), packed like the product's operands, so an image costs one int
product per row, one unpack and no field operation (a field too wide to
pack keeps the rows by columns, at one dot product per column).  Prime
fields multiply as (a*b) % p.  A power is taken left to right from its
base, one squaring per bit after the leading one.  A square root is
Tonelli-Shanks, with q - 1 = 2^s t split and z^t, for the first
non-square z, taken once per field, and one powering a^((t-1)/2) per
root.  A rootless quadratic over GF(p^k), p odd, takes the square root of
its discriminant D in GF(p^k) and not in GF(p^2k): sqrt(D / n0) there, for
the first non-square n0, times s0 with s0^2 = n0, found once per field.

A matrix product does not go through FieldElement at all: it is one call
of the field's kernel, _matmul, on rows of payloads, which skips zero
terms.  The base version works term by term through the payload _mul and
_add, so a finite field takes its own product: (a*b) % p, the tables below
the cap or the Kronecker product above it.  Over Q each left row and each
right column is written as integers over the lcm of its denominators once
per product, so an entry is one integer dot and one gcd: the reductions are
delayed to one per entry, as in the delayed modular reduction of
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

import functools
import itertools
import re
import struct
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import mul as _imul
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
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
            raise ValueError("field spec must be an object with a 'kind'")
        kind = obj["kind"]
        if kind == "rational":
            return FieldSpec("rational")
        if kind not in ("prime", "extension"):
            raise ValueError(f"unknown field kind {kind!r}")
        p = json_int(json_key(obj, "p", "field spec"), "p")
        if kind == "prime":
            return FieldSpec("prime", p=p)
        k = json_int(json_key(obj, "k", "field spec"), "k")
        modulus = json_key(obj, "modulus", "field spec")
        if not isinstance(modulus, list):
            raise ValueError("modulus must be a list of integers")
        return FieldSpec("extension", p=p, k=k,
                         modulus=tuple(json_int(c, "modulus entry") for c in modulus))


def json_key(obj: dict, key: str, what: str):
    """obj[key], or a ValueError naming the missing key."""
    if key not in obj:
        raise ValueError(f"{what} is missing {key!r}")
    return obj[key]


def json_int(value, name: str) -> int:
    """An integer read from JSON; a float, a boolean or a string is refused,
    not converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


# Miller-Rabin to these bases (the first twelve primes) decides every n below
# CHARACTERISTIC_LIMIT exactly; larger characteristics are refused.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
CHARACTERISTIC_LIMIT = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n >= CHARACTERISTIC_LIMIT:
        raise ValueError(
            f"{n} is too large: the characteristic must be below 2^64"
        )
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
        if self.value == field.zero_value:
            raise ZeroDivisionError(f"division by zero in {field}")
        return field._elements[field._inv(self.value)]

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

    def _matmul(self, left, right):
        """The payload rows of the matrix product of two square matrices
        given by payload rows.  Each nonzero left[i][k] is multiplied into
        the nonzero entries of right[k], and each output entry starts from
        its first product, so zero terms cost one test and nothing else.
        This version works term by term through _mul and _add; the
        rationals delay their reductions."""
        zero, mul, add = self.zero_value, self._mul, self._add
        right = _nonzero_terms(right, zero)
        out = []
        for row in _nonzero_terms(left, zero):
            acc = [None] * len(right)
            for k, a in row:
                for j, b in right[k]:
                    t = acc[j]
                    acc[j] = mul(a, b) if t is None else add(t, mul(a, b))
            out.append(tuple([zero if x is None else x for x in acc]))
        return tuple(out)

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
        raise NotImplementedError

    def format(self, a: FieldElement) -> str:
        raise NotImplementedError

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        return self.element(rng.randrange(1 if nonzero else 0, self.order()))

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return self.spec_hash


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
        return self._add(a, (-b[0], b[1]))

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
        col_den = [lcm(*col) for col in zip(*[[d for _, d in row] for row in right])]
        zero = self.zero_value
        right = [[(j, n * (col_den[j] // d)) for j, (n, d) in row]
                 for row in _nonzero_terms(right, zero)]
        row_den = [lcm(*[d for _, d in row]) for row in left]
        left = [[(k, n * (r // d)) for k, (n, d) in row]
                for row, r in zip(_nonzero_terms(left, zero), row_den)]
        out = []
        for acc, r in zip(_int_products(left, right), row_den):
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

    def from_int(self, n: int) -> FieldElement:
        return self._elements[(n, 1)]

    def characteristic(self) -> int:
        return 0

    def parse(self, text: str) -> FieldElement:
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational literal: {text!r}")
        n, _, d = text.partition("/")
        n, d = int(n), int(d or 1)
        g = gcd(n, d)
        return self._elements[(n // g, d // g)]

    def format(self, a: FieldElement) -> str:
        n, d = a.value
        return str(n) if d == 1 else f"{n}/{d}"

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

    def parse(self, text: str) -> FieldElement:
        text = text.strip()
        if not _INT_RE.match(text):
            raise ValueError(f"not a residue literal: {text!r}")
        return self._elements[int(text) % self.p]

    def format(self, a: FieldElement) -> str:
        return str(a.value)

    def __repr__(self):
        return f"GF({self.p})"


_EXT_TERM_RE = re.compile(r"^(\d+)(?:\*w(?:\^(\d+))?)?$")


class ExtensionField(Field):
    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be at least 2")
        if k > MAX_EXTENSION_DEGREE:
            raise ValueError(
                f"extension degree {k} exceeds the supported maximum "
                f"{MAX_EXTENSION_DEGREE}"
            )
        if len(modulus) != k + 1:
            raise ValueError("modulus must have k+1 coefficients, low degree first")
        mod = tuple(c % p for c in modulus)
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _irreducible(mod, p):
            raise ReducibleModulus(
                f"modulus {list(mod)} is reducible over GF({p})"
            )
        self.p = p
        self.k = k
        self.modulus = mod
        self._int_tail = (0,) * (k - 1)  # the payload of n is (n % p,) + this
        self._fold = _fold_rows(mod, p)
        self._payload_struct, self._conv_struct = _packings(p, k)
        super().__init__(FieldSpec("extension", p=p, k=k, modulus=mod),
                         (0,) * k, (1,) + (0,) * (k - 1))
        # The class's _add, _sub and _neg work on k coefficients, and its
        # _mul and _inv are the Kronecker product and the Itoh-Tsujii
        # inverse; the instance shadows them where a faster form applies.
        if k == 2:
            self._add, self._sub, self._neg = _pair_ops(p)
        if p**k <= TABLE_ORDER_CAP:
            self._mul, self._inv = _table_ops(self)
            return
        if self._payload_struct is None:
            self._mul = self._fold_mul
        self._frobenius, self._chain = _itoh_tsujii_chain(self)

    def _add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def _sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def _neg(self, a):
        p = self.p
        return tuple([(-x) % p for x in a])

    def _mul(self, a, b):
        # Kronecker substitution: each payload packed into one int, its
        # coefficients as base-256^width digits wide enough that the
        # convolution never carries, so one int product is the convolution
        to_int = int.from_bytes
        pack, conv = self._payload_struct.pack, self._conv_struct
        product = to_int(pack(*a), "little") * to_int(pack(*b), "little")
        return self._reduce(conv.unpack(product.to_bytes(conv.size, "little")))

    def _fold_mul(self, a, b):
        """The product for fields too wide to pack: the convolution summed
        term by term."""
        conv = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return self._reduce(conv)

    def _reduce(self, conv):
        """The payload of a convolution of 2k - 1 coefficients: degrees
        k..2k-2 fold down through the rows of x^(k+j) mod the modulus, and
        the sums stay plain ints until the one % p per coefficient."""
        low = list(conv[:self.k])
        for j, i, c in self._fold:
            low[i] += conv[j] * c
        p = self.p
        return tuple([c % p for c in low])

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

    def _linear_map(self, rows) -> Callable[[tuple], tuple]:
        """The GF(p)-linear map of payloads x -> sum_i x_i rows[i], for at
        most k rows that are payloads of this field.  Where the field packs,
        the rows are packed ints, so an image is len(rows) int products."""
        p = self.p
        if self._payload_struct is None:
            columns = tuple(zip(*rows))
            return lambda x: tuple([sum(map(_imul, x, col)) % p for col in columns])
        payload = self._payload_struct
        packed = [int.from_bytes(payload.pack(*row), "little") for row in rows]
        unpack, size = payload.unpack, payload.size
        return lambda x: tuple([
            c % p for c in unpack(sum(map(_imul, x, packed)).to_bytes(size, "little"))
        ])

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

    def parse(self, text: str) -> FieldElement:
        terms = text.strip().replace(" ", "").split("+")
        if len(terms) != self.k:
            raise ValueError(
                f"expected {self.k} terms 'c0+c1*w+...', got {text!r}"
            )
        coeffs = []
        for i, term in enumerate(terms):
            m = _EXT_TERM_RE.match(term)
            if not m:
                raise ValueError(f"bad term {term!r} in {text!r}")
            power = 0 if m.group(2) is None and "*w" not in term else (
                1 if m.group(2) is None else int(m.group(2))
            )
            if power != i:
                raise ValueError(f"term {term!r} out of place in {text!r}")
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


# Coefficient widths, in bytes, of the packed payloads of the Kronecker
# product, with their struct codes
_PACK_WIDTHS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _packings(p: int, k: int):
    """The structs that pack a payload and unpack a convolution of GF(p^k),
    at the narrowest width that holds k(p-1)^2, the largest convolution
    coefficient; (None, None) when no width of at most 8 bytes does."""
    bound = k * (p - 1) ** 2
    for width, code in _PACK_WIDTHS:
        if bound < 256**width:
            return struct.Struct(f"<{k}{code}"), struct.Struct(f"<{2 * k - 1}{code}")
    return None, None


def _pair_ops(p: int):
    """Payload sum, difference and negative of a quadratic extension of
    GF(p), written out on the two coefficients: the k-term comprehensions
    cost several times as much."""

    def add(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(a, b):
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(a):
        return (-a[0] % p, -a[1] % p)

    return add, sub, neg


def _itoh_tsujii_chain(field: ExtensionField):
    """The Frobenius map sigma of the field and the steps of the addition
    chain on k - 1 that ExtensionField._inv takes: reading k - 1 in binary
    after its leading bit, each bit doubles m (the step is the map sigma^m)
    and a set bit then adds one (the step is None).  Each map is linear,
    built from the powers of w^(p^m), and w^p costs one powering."""
    p, k, mul, one = field.p, field.k, field._mul, field.one_value

    def powers(x):  # the payloads of x^i, 0 <= i < k: the rows of the map
        rows = [one]
        for _ in range(k - 1):
            rows.append(mul(rows[-1], x))
        return field._linear_map(rows)

    image = field.pow(field.generator(), p).value  # sigma^m(w), from m = 1
    frobenius = powers(image)
    chain = []
    for bit in bin(k - 1)[3:]:
        sigma = powers(image) if chain else frobenius  # the first m is 1
        chain.append(sigma)
        image = sigma(image)
        if bit == "1":
            chain.append(None)
            image = frobenius(image)
    return frobenius, tuple(chain)


def _table_ops(field: ExtensionField):
    """Payload multiply and inverse of a finite extension field by table.

    The generator g is the first element of multiplicative order q - 1 in
    element order: each candidate's powers are walked with the Kronecker
    product, and the walk is used only if it comes back to one after exactly
    q - 1 distinct powers.  Then antilog[i] = g^i for 0 <= i < q - 1, and
    log is its inverse map."""
    n = field.order() - 1
    zero, one = field.zero_value, field.one_value
    for index in range(1, n + 1):
        g = field.element(index).value
        antilog, x = [one], g
        while x != one and len(antilog) < n:
            antilog.append(x)
            x = ExtensionField._mul(field, x, g)
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
        raise ValueError(f"unknown field kind {spec.kind!r}")
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
        linear = dst._linear_map([pw.value for pw in powers])

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
