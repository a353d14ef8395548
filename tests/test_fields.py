"""Field arithmetic: axioms, parsing, embeddings, quadratic roots."""

import cProfile
import itertools
import math
import operator
import pstats
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard import (
    ExtensionField,
    FieldElement,
    FieldSpec,
    NeedsFieldExtension,
    NonPrimeModulus,
    PrimeField,
    ReducibleModulus,
    RationalField,
    ZeroToNegativePower,
    embed_map,
    extension_field,
    make_field,
    prime_field,
    quadratic_roots,
    rational_field,
    splitting_field,
)
from leonard import fields
from leonard.errors import BadInput
from leonard.fields import (
    MAX_EXTENSION_DEGREE,
    MAX_LITERAL_DIGITS,
    TABLE_ORDER_CAP,
    _find_irreducible,
    _identity,
)

from conftest import kterm_add, kterm_neg, kterm_sub

Q = rational_field()
F7 = prime_field(7)
F4 = extension_field(2, 2, (1, 1, 1))
F8 = extension_field(2, 3, (1, 1, 0, 1))
F3_7 = extension_field(3, 7, _find_irreducible(3, 7))  # above TABLE_ORDER_CAP


def all_fields():
    return [Q, F7, F4, F8]


def invariant_fields():
    """Every field kind, with and without log/antilog tables: the invariants
    that the same-field fast path of the FieldElement operators must keep
    are checked on each."""
    return all_fields() + [F3_7]


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_ring_axioms(x, y, z):
    a, b, c = (Q.parse(str(v)) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(st.integers(), st.integers())
def test_prime_field_matches_int_mod(m, n):
    a, b = F7.from_int(m), F7.from_int(n)
    assert a + b == F7.from_int(m + n)
    assert a * b == F7.from_int(m * n)
    assert -a == F7.from_int(-m)


_BIG = st.integers(2**200, 2**260)
# zero, small fractions, and numerators and denominators past 2^200
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(),
    st.builds(Fraction, _BIG | _BIG.map(operator.neg) | st.integers(-9, 9),
              _BIG | st.integers(1, 9)),
)


def as_fraction(e):
    """The Fraction a rational element stands for, after checking that its
    payload is canonical: ints in lowest terms, positive denominator, zero
    as (0, 1)."""
    n, d = e.value
    assert type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert n != 0 or d == 1
    return Fraction(n, d)


@given(RATIONALS, RATIONALS)
@example(Fraction(0), Fraction(-3, 2**201))
def test_rational_field_matches_fraction(x, y):
    a, b = Q.parse(str(x)), Q.parse(str(y))
    assert as_fraction(a) == x and as_fraction(b) == y
    assert as_fraction(a + b) == x + y
    assert as_fraction(a - b) == x - y
    assert as_fraction(a * b) == x * y
    assert as_fraction(-a) == -x
    assert as_fraction(a**3) == x**3
    assert (a == b) == (x == y) and bool(a) == bool(x)
    assert Q.format(a * b) == str(x * y)
    if y:
        assert as_fraction(a / b) == x / y
        assert as_fraction(b.inverse()) == 1 / y
        assert as_fraction(b**-2) == y**-2
    for n in (0, 1, -7, 2**201):
        assert as_fraction(Q.from_int(n)) == n
        assert as_fraction(a + n) == x + n and as_fraction(n - a) == n - x


@given(RATIONALS, st.integers(1, 10**6))
def test_equal_rationals_are_one_payload(x, k):
    built = (
        Q.parse(f"{x.numerator * k}/{x.denominator * k}"),
        Q.from_int(x.numerator) / Q.from_int(x.denominator),
        Q.parse(str(x)) * k / k,
        Q.parse(str(x)) + Q.one() - Q.one(),
    )
    for e in built:
        assert e == built[0] and hash(e) == hash(built[0])
        assert e.value == built[0].value == (x.numerator, x.denominator)
    half = Q.parse("2/4")
    assert half == Q.one() / 2 and hash(half) == hash(Q.one() / 2)
    assert Q.parse("-0") == Q.parse("0/7") == Q.zero()
    assert Q.parse("-0").value == Q.zero().value == (0, 1)


@given(st.sampled_from(["", "+", "-"]), st.integers(0, 2**210),
       st.integers(0, 3), st.none() | st.integers(1, 2**210), st.integers(0, 3))
def test_rational_format_is_str_of_fraction(sign, num, pad, den, dpad):
    text = sign + "0" * pad + str(num)
    if den is not None:
        text += "/" + "0" * dpad + str(den)
    assert Q.format(Q.parse(text)) == str(Fraction(text))
    assert Q.parse(Q.format(Q.parse(text))) == Q.parse(text)


def parse_outcome(parse, text):
    """(numerator, denominator) of parse(text), or the message of the
    ValueError it raises."""
    try:
        v = parse(text)
    except ValueError as e:
        return str(e)
    return (v.numerator, v.denominator) if isinstance(v, Fraction) else v.value


@given(RATIONALS, st.sampled_from(["", "+", "-"]), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 50))
def test_rational_parse_matches_fraction(x, sign, pad, dpad, k):
    """The payload of a parsed literal is Fraction's numerator and
    denominator, for literals with a sign, leading zeros and a common
    factor."""
    n, d = abs(x.numerator) * k, x.denominator * k
    text = f"{sign}{'0' * pad}{n}/{'0' * dpad}{d}"
    assert parse_outcome(Q.parse, text) == parse_outcome(Fraction, text)
    assert parse_outcome(Q.parse, str(x)) == parse_outcome(Fraction, str(x))


@pytest.mark.parametrize("text", [
    "-0", "+0", "0/9", "+10/4", "-10/4", "007/014", "-007/0014", "12",
    "9" * 4300, "-" + "9" * 4300 + "/" + "7" * 4300, "0" * 4300 + "/3",
    "9" * 4301, "-" + "9" * 4301, "1/" + "7" * 4301, "9" * 4301 + "/" + "7" * 4400,
], ids=lambda t: t if len(t) < 12 else f"{len(t)}-chars")
def test_rational_parse_edge_literals_match_fraction(text):
    """Zero with a sign, leading zeros, and numbers at the interpreter's
    int-to-str digit limit: the same payload as Fraction.  A number past
    the limit is a BadInput that names its digit count."""
    digits = max(len(part.lstrip("+-")) for part in text.split("/"))
    if digits <= MAX_LITERAL_DIGITS:
        assert parse_outcome(Q.parse, text) == parse_outcome(Fraction, text)
    else:
        with pytest.raises(BadInput, match=f"at most {MAX_LITERAL_DIGITS} "
                                           f"digits, got {digits}$"):
            Q.parse(text)


def test_rational_format_past_the_digit_limit():
    """format prints numerators and denominators of up to 10,000 digits,
    which str() refuses under the interpreter's default limit, as str()
    prints them under a raised one."""
    rng = random.Random(10_000)
    ints = [rng.randrange(10**9999, 10**10000), 10**9999, 10**10000 - 1,
            3 * 10**5000 + 1, 10**4300, 10**600 - 1, 10**600]
    values = [Q.from_int(n) for n in ints] + [Q.from_int(-n) for n in ints]
    values += [Q.from_int(a) / Q.from_int(b) for a, b in zip(ints, ints[1:] + [7])]
    got = [Q.format(x) for x in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(as_fraction(x)) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert max(len(text) for text in got) > 10_000


def test_rational_random_element_draws_as_fraction_did():
    """random_element makes the rng calls that the Fraction payload made, so
    seeded draws of arrays over Q stay the same."""
    ours, theirs = random.Random(11), random.Random(11)
    for i in range(300):
        nonzero = i % 2 == 1
        while True:
            want = Fraction(theirs.randint(-8, 8), theirs.randint(1, 6))
            if want or not nonzero:
                break
        assert as_fraction(Q.random_element(ours, nonzero=nonzero)) == want
    assert ours.random() == theirs.random()


def test_field_axioms_random_elements():
    rng = random.Random(20240811)
    for field in all_fields():
        for _ in range(40):
            a = field.random_element(rng)
            b = field.random_element(rng)
            c = field.random_element(rng, nonzero=True)
            assert a + field.zero() == a
            assert a * field.one() == a
            assert a - a == field.zero()
            assert c * c.inverse() == field.one()
            assert (a + b) * c == a * c + b * c
            assert (a / c) * c == a
            assert a**3 == a * a * a
            assert c**-2 == (c.inverse()) ** 2


def test_int_coercion_both_sides():
    a = F7.from_int(3)
    assert a + 1 == 4 % 7 == (1 + a).value
    assert 2 - a == F7.from_int(-1)
    assert 2 * a == F7.from_int(6)
    assert 6 / a == F7.from_int(2)
    assert a == 3 and 3 == a
    for field in invariant_fields():
        x = field.element(3) if field.is_finite() else field.parse("3/2")
        one = field.one()
        assert x + 1 == 1 + x == x + one
        assert x - 2 == -(2 - x) == x - (one + one)
        assert 2 * x == x * 2 == x + x
        assert 1 / x == x.inverse() and x / 1 == x
        assert one == 1 and 1 == one and field.zero() == 0


def test_element_is_immutable():
    for field in invariant_fields():
        x = field.one()
        with pytest.raises(AttributeError):
            x.value = field.zero().value
        with pytest.raises(AttributeError):
            x.field = Q
        assert x == field.one() and x.field is field


def test_elements_up_to_the_table_cap_are_built_once():
    """A finite field of order at most TABLE_ORDER_CAP returns one stored
    element per payload; Q and larger fields build a new element each time,
    so their memory does not grow with use."""
    rng = random.Random(11)
    gf961 = extension_field(31, 2, _find_irreducible(31, 2))
    for field in (F7, F4, F8, prime_field(1021), gf961):
        assert field.order() <= TABLE_ORDER_CAP
        elems = list(field.elements())
        assert all(field.element(i) is x for i, x in enumerate(elems))
        assert field.zero() is elems[0] and field.one() is field.from_int(1)
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems[1:])
            for z in (x + y, x - y, x * y, x / y, -x, y.inverse(), x**5,
                      field.parse(field.format(x))):
                assert z is elems[field.index_of(z)]
        assert len(field._interned) == field.order()
    for field in (Q, prime_field(1031), F3_7):
        assert field._interned is None
        assert field.one() is not field.one() and field.one() == field.one()


def test_extension_payload_sum_ops_match_the_k_term_ones():
    """Every extension field, of every degree, adds, subtracts and negates
    on its k coefficients written out; the k-term comprehensions of
    conftest are the oracle.  Degrees 2..8 by table (GF(2^k), GF(3^k) for
    k <= 6) and above TABLE_ORDER_CAP (GF(3^7), GF(3^8), GF(37^2),
    GF((2^61 - 1)^2)), with the operands 0 and p - 1 in every coefficient."""
    rng = random.Random(5)
    specs = [(p, k) for k in range(2, MAX_EXTENSION_DEGREE + 1) for p in (2, 3)]
    for p, k in specs + [(37, 2), (2**61 - 1, 2)]:
        F = extension_field(p, k, _find_irreducible(p, k))
        assert "_add" in vars(F)
        ends = [(0,) * k, (p - 1,) * k, (0, p - 1) * (k // 2) + (p - 1,) * (k % 2)]
        values = ends + [F.random_element(rng).value for _ in range(40)]
        for a in values:
            assert F._neg(a) == kterm_neg(F, a), (F, a)
            for b in ends + [rng.choice(values)]:
                assert F._add(a, b) == kterm_add(F, a, b), (F, a, b)
                assert F._sub(a, b) == kterm_sub(F, a, b), (F, a, b)
    assert not {"_add", "_sub", "_neg"} & set(vars(ExtensionField))


def test_mixed_fields_are_refused():
    pairs = [
        (F7, prime_field(11)),
        (F7, Q),
        # equal orders, different moduli
        (F8, extension_field(2, 3, (1, 0, 1, 1))),
        (extension_field(3, 2, (1, 0, 1)), extension_field(3, 2, (2, 1, 1))),
    ]
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           operator.eq)
    for left, right in pairs:
        for x, y in ((left.one(), right.one()), (right.one(), left.one())):
            for op in ops:
                with pytest.raises(ValueError, match="mixed fields"):
                    op(x, y)


def test_fields_with_equal_specs_interoperate():
    for cached, direct in ((F7, PrimeField(7)),
                           (F4, ExtensionField(2, 2, (1, 1, 1))),
                           (F3_7, ExtensionField(3, 7, F3_7.spec.modulus))):
        assert direct is not cached and direct == cached
        for n in range(4):
            a, b = direct.from_int(n), cached.from_int(n)
            assert a == b and b == a and hash(a) == hash(b)
            assert a + b == cached.from_int(2 * n) == b + a
            assert a * b == cached.from_int(n * n) == b * a
            assert a - b == cached.zero() == b - a
        w = direct.element(cached.order() - 1)
        assert w / cached.element(cached.order() - 1) == cached.one()


# The FieldElement operators as they stood when each one coerced its operand
# inline: the oracle for the one slow path, FieldElement._coerced.  The old
# _coerce passed an equal-spec operand through unchanged.


def _old_coerce(self, other):
    if isinstance(other, FieldElement):
        if other.field.spec != self.field.spec:
            raise ValueError(
                f"mixed fields: {self.field} and {other.field}"
            )
        return other
    if isinstance(other, int):
        return self.field.from_int(other)
    return None


def _old_add(self, other):
    field = self.field
    if other.__class__ is not FieldElement or other.field is not field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return field._elements[field._add(self.value, other.value)]


def _old_sub(self, other):
    field = self.field
    if other.__class__ is not FieldElement or other.field is not field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return field._elements[field._sub(self.value, other.value)]


def _old_rsub(self, other):
    field = self.field
    if other.__class__ is not FieldElement or other.field is not field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return field._elements[field._sub(other.value, self.value)]


def _old_mul(self, other):
    field = self.field
    if other.__class__ is not FieldElement or other.field is not field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return field._elements[field._mul(self.value, other.value)]


def _old_truediv(self, other):
    if other.__class__ is not FieldElement or other.field is not self.field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return self * other.inverse()


def _old_rtruediv(self, other):
    if other.__class__ is not FieldElement or other.field is not self.field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return other * self.inverse()


def _old_eq(self, other):
    if other.__class__ is not FieldElement or other.field is not self.field:
        other = _old_coerce(self, other)
        if other is None:
            return NotImplemented
    return self.value == other.value


OLD_OPERATORS = {"__add__": _old_add, "__radd__": _old_add, "__sub__": _old_sub,
                 "__rsub__": _old_rsub, "__mul__": _old_mul, "__rmul__": _old_mul,
                 "__truediv__": _old_truediv, "__rtruediv__": _old_rtruediv,
                 "__eq__": _old_eq}
SYNTAX = (operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne)
P61 = 2**61 - 1
# field -> a field of another spec, for the mixed operands
ORACLE_FIELDS = {
    "Q": (Q, F7),
    "GF(7)": (F7, prime_field(11)),
    "GF(4)": (F4, F8),
    "GF(3^7)": (F3_7, Q),
    "GF(p61^2)": (extension_field(P61, 2, _find_irreducible(P61, 2)), F7),
}


def _twin(field):
    """A second object of the field, built by its class and not cached."""
    spec = field.spec
    if spec.kind == "rational":
        return RationalField()
    if spec.kind == "prime":
        return PrimeField(spec.p)
    return ExtensionField(spec.p, spec.k, spec.modulus)


def _method(attr):
    """A call of the operator the class holds at call time."""
    return lambda x, y: getattr(FieldElement, attr)(x, y)


def _outcome(fn, *args):
    """What fn(*args) gives, comparable across the two implementations: an
    element's payload and the identity of its field object, a bool,
    NotImplemented, or the exception's type and message."""
    try:
        r = fn(*args)
    except Exception as e:  # the exception is the outcome
        return type(e), str(e)
    if isinstance(r, FieldElement):
        return r.value, id(r.field)
    return r


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_operators_match_the_inline_coercion_oracle(name, monkeypatch):
    """Every binary operator, reached through Python's operator syntax and
    by a direct call, against the inline bodies above: the same value in the
    same field object, the same NotImplemented and the same error."""
    field, other = ORACLE_FIELDS[name]
    twin = _twin(field)
    assert twin is not field and twin == field
    rng = random.Random(f"operator oracle {name}")
    cases = []
    for _ in range(25):
        a, b = field.random_element(rng), field.random_element(rng)
        n = rng.randint(-20, 20)
        foreign = (twin._elements[b.value], other.random_element(rng))
        cases += [(op, x, y) for op in SYNTAX
                  for x, y in ((a, b), (a, n), (n, a), *((a, f) for f in foreign),
                               *((f, a) for f in foreign), (a, 1.5), (1.5, a))]
        cases += [(_method(attr), a, y) for attr in OLD_OPERATORS
                  for y in (b, n, 0, "x", 1.5)]

    def outcomes():
        return [_outcome(op, x, y) for op, x, y in cases]

    new = outcomes()
    with monkeypatch.context() as m:
        for attr, fn in OLD_OPERATORS.items():
            m.setattr(FieldElement, attr, fn)
        old = outcomes()
    assert new == old
    errors = {o[0] for o in new if isinstance(o, tuple) and isinstance(o[0], type)}
    assert errors == {TypeError, ValueError, ZeroDivisionError}
    assert any(o is NotImplemented for o in new)
    assert any(o is True for o in new) and any(o is False for o in new)


def test_an_operation_with_a_coerced_operand_is_one_operator_call(monkeypatch):
    """Counted like perfbench's tracer counts them, by wrappers set on the
    class: the slow path calls the operator as the class defined it, so an
    int operand adds no second call of the wrapped operator."""
    counts = {}

    def counted(attr, fn):
        def wrapper(*args):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args)
        return wrapper

    for attr in (*OLD_OPERATORS, "inverse", "__neg__", "__bool__"):
        monkeypatch.setattr(FieldElement, attr,
                            counted(attr, FieldElement.__dict__[attr]))
    division = {"inverse": 1, "__mul__": 1}
    for field in invariant_fields():
        a = field.element(3) if field.is_finite() else field.parse("3/2")
        twin = _twin(field).from_int(5)
        two = 3 if field.characteristic() == 2 else 2  # a nonzero int
        for expr, want in ((lambda: a + 1, {"__add__": 1}),
                           (lambda: 1 + a, {"__radd__": 1}),
                           (lambda: 1 - a, {"__rsub__": 1}),
                           (lambda: a / two, {"__truediv__": 1, **division}),
                           (lambda: two / a, {"__rtruediv__": 1, **division}),
                           (lambda: a == 3, {"__eq__": 1}),
                           (lambda: a * twin, {"__mul__": 1})):
            counts.clear()
            expr()
            assert counts == want, (field, want)


def test_each_spec_of_a_field_gets_one_object():
    """A modulus with entries past p names the same field as its reduction:
    make_field returns the canonical object for it every time."""
    loose = FieldSpec("extension", p=5, k=2, modulus=(7, 0, 1))
    first = make_field(loose)
    assert make_field(loose) is first
    assert extension_field(5, 2, (2, 0, 1)) is first
    assert first.spec.modulus == (2, 0, 1)
    canonical = extension_field(7, 2, _find_irreducible(7, 2))
    wide = tuple(c + 7 for c in canonical.spec.modulus[:-1]) + (1,)
    assert extension_field(7, 2, wide) is canonical
    assert make_field(FieldSpec("extension", p=7, k=2, modulus=wide)) is canonical


def test_one_identity_map():
    assert embed_map(F7, F7) is _identity is embed_map(Q, Q)
    assert splitting_field(F7, F7.zero(), F7.from_int(-1))[1] is _identity
    x = F4.element(3)
    assert _identity(x) is x


def test_zero_inverse_raises():
    for field in invariant_fields():
        assert not field.zero() and field.one() and -field.one()
        with pytest.raises(ZeroToNegativePower):
            field.zero() ** -1
        with pytest.raises(ZeroDivisionError):
            field.one() / field.zero()
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            1 / field.zero()


@pytest.mark.parametrize("F", [Q, prime_field(7), extension_field(3, 4, _find_irreducible(3, 4)),
                               prime_field(2**61 - 1)], ids=str)
def test_checked_payload_inverse(F):
    """Field._checked_inv refuses the zero payload with the message of
    FieldElement.inverse, which reads it, where _inv alone gives (1, 0)
    over Q and raises ValueError over GF(p); on nonzero payloads it is
    _inv."""
    for call in (lambda: F._checked_inv(F.zero_value), lambda: F.zero().inverse()):
        with pytest.raises(ZeroDivisionError) as e:
            call()
        assert str(e.value) == f"division by zero in {F}"
    rng = random.Random(f"checked-inverse/{F}")
    for _ in range(20):
        x = F.random_element(rng, nonzero=True)
        assert F._checked_inv(x.value) == F._inv(x.value) == x.inverse().value


def test_characteristic_and_order():
    assert Q.characteristic() == 0 and not Q.is_finite()
    assert F7.characteristic() == 7 and F7.order() == 7
    assert F4.characteristic() == 2 and F4.order() == 4
    assert F8.order() == 8


def test_frobenius_is_additive():
    # x -> x^p fixes GF(p) and respects sums
    p = F8.characteristic()
    elems = list(F8.elements())
    for a in elems:
        for b in elems[:4]:
            assert (a + b) ** p == a**p + b**p


def test_extension_modulus_root_vanishes():
    w = F4.generator()
    assert w * w + w + F4.one() == F4.zero()
    v = F8.generator()
    assert v**3 + v + F8.one() == F8.zero()


def test_elements_enumeration_unique():
    seen = list(F8.elements())
    assert len(seen) == 8
    assert len(set(seen)) == 8
    for i, a in enumerate(seen):
        assert F8.element(i) == a
        assert F8.index_of(a) == i


def test_parse_format_round_trip():
    rng = random.Random(5)
    for field in all_fields():
        for _ in range(30):
            a = field.random_element(rng)
            assert field.parse(field.format(a)) == a


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Q.parse("1.5")
    with pytest.raises(ValueError):
        F7.parse("2/3")
    with pytest.raises(ValueError):
        F4.parse("w")
    with pytest.raises(ValueError):
        F4.parse("1+1*w+1*w^2")


def test_nonprime_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        prime_field(10)
    with pytest.raises(NonPrimeModulus):
        extension_field(4, 2, (1, 1, 1))


@pytest.mark.parametrize("p, k, modulus", [
    (7, 2, (1.0, 0, 1)), (7, 2, (1, 0, 1.0)), (7, 2, ("1", 0, 1)),
    (7.0, 2, (1, 0, 1)), (1000003, 2, (1, 0, 1.5)), (7, 2, (True, 0, 1)),
])
def test_extension_field_refuses_a_modulus_that_is_not_ints(p, k, modulus, monkeypatch):
    """Each field writes its product out as source from p and its modulus,
    so a float, a string or a boolean is refused before anything is
    compiled; JSON specs and --field already admit only ints."""
    compiled, compile_source = [], fields._compiled
    monkeypatch.setattr(fields, "_compiled",
                        lambda *args: compiled.append(args) or compile_source(*args))
    with pytest.raises(ValueError, match="must be an integer"):
        ExtensionField(p, k, modulus)
    assert not compiled
    ExtensionField(7, 2, (1, 0, 1))  # the same field from ints compiles
    assert compiled


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        extension_field(2, 2, (1, 0, 1))


def test_field_spec_round_trip():
    for field in all_fields():
        spec = FieldSpec.from_json(field.spec.to_json())
        assert make_field(spec) is make_field(field.spec)


def test_embed_prime_into_extension():
    f2 = prime_field(2)
    emb = embed_map(f2, F4)
    assert emb(f2.one()) == F4.one()
    assert emb(f2.zero()) == F4.zero()
    emb7 = embed_map(Q, Q)
    assert emb7(Q.from_int(5)) == Q.from_int(5)
    with pytest.raises(ValueError):
        embed_map(F7, F4)


def test_quadratic_roots_rational():
    # x^2 - 3x + 2 = (x - 1)(x - 2); larger root listed first
    roots = quadratic_roots(Q, Q.from_int(-3), Q.from_int(2))
    assert [Q.format(r) for r in roots] == ["2", "1"]
    assert quadratic_roots(Q, Q.from_int(0), Q.from_int(1)) is None
    double = quadratic_roots(Q, Q.from_int(-2), Q.from_int(1))
    assert double == (Q.one(), Q.one())
    # (x - 1/2)(x - 1/3): the discriminant 1/36 is a square with denominator 36
    roots = quadratic_roots(Q, Q.parse("-5/6"), Q.parse("1/6"))
    assert [Q.format(r) for r in roots] == ["1/2", "1/3"]
    # discriminants 1/2 and 2/9: a square numerator or denominator alone is not enough
    assert quadratic_roots(Q, Q.zero(), Q.parse("-1/8")) is None
    assert quadratic_roots(Q, Q.zero(), Q.parse("-1/18")) is None


def test_quadratic_roots_finite():
    # x^2 - 1 over GF(7)
    roots = quadratic_roots(F7, F7.zero(), F7.from_int(-1))
    assert roots is not None and set(roots) == {F7.from_int(1), F7.from_int(6)}
    # x^2 + x + 1 is irreducible over GF(2) and GF(5)
    f5 = prime_field(5)
    assert quadratic_roots(f5, f5.one(), f5.one()) is None


def test_splitting_field_over_prime():
    f5 = prime_field(5)
    ext, lift, (r1, r2) = splitting_field(f5, f5.one(), f5.one())
    assert ext.order() == 25
    one = ext.one()
    for r in (r1, r2):
        assert r * r + r + one == ext.zero()
    assert lift(f5.from_int(3)) == ext.from_int(3)
    # roots already present: the field comes back unchanged
    same, lift2, roots = splitting_field(f5, f5.zero(), f5.from_int(-1))
    assert same is f5 and set(roots) == {f5.from_int(1), f5.from_int(4)}


def test_splitting_field_over_q_raises():
    with pytest.raises(NeedsFieldExtension) as e:
        splitting_field(Q, Q.zero(), Q.from_int(-2))
    assert e.value.b == Q.zero() and e.value.c == Q.from_int(-2)


def test_splitting_field_degree_cap():
    f3 = prime_field(3)
    big = splitting_field(f3, f3.zero(), f3.one())[0]
    assert big.order() == 9
    # splitting an irreducible quadratic over GF(2^8) would need degree 16
    deep = extension_field(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))
    c = next(x for x in deep.elements()
             if quadratic_roots(deep, deep.one(), x) is None)
    with pytest.raises(NeedsFieldExtension):
        splitting_field(deep, deep.one(), c)


# The finite-field walk and draw as each finite field wrote them before
# `Field.elements` and `Field.random_element` served both: the oracle.
def elements_oracle(F):
    if isinstance(F, PrimeField):
        for v in range(F.p):
            yield F._elements[v]
    else:
        for n in range(F.order()):
            yield F.element(n)


def random_element_oracle(F, rng, nonzero=False):
    lo = 1 if nonzero else 0
    if isinstance(F, PrimeField):
        return F._elements[rng.randrange(lo, F.p)]
    return F.element(rng.randrange(lo, F.order()))


WALK_FIELDS = {"GF(7)": F7, "GF(4)": F4, "GF(3^7)": F3_7,
               "GF(2^61-1)": prime_field(2**61 - 1)}


@pytest.mark.parametrize("label", ["GF(7)", "GF(4)", "GF(3^7)"])
def test_elements_walk_matches_the_per_field_oracle(label):
    """One walk in field order; GF(3^7) is compared on its first 50."""
    F = WALK_FIELDS[label]
    n = 50 if label == "GF(3^7)" else F.order()
    got = list(itertools.islice(F.elements(), n))
    want = list(itertools.islice(elements_oracle(F), n))
    assert len(got) == n and got == want


@pytest.mark.parametrize("label", list(WALK_FIELDS))
def test_random_element_draws_match_the_per_field_oracle(label):
    """The same elements from the same seed, and the rng left in the same
    state, so seeded inputs built from these draws do not change."""
    F = WALK_FIELDS[label]
    for nonzero in (False, True):
        rng, oracle_rng = random.Random(f"draw/{label}"), random.Random(f"draw/{label}")
        got = [F.random_element(rng, nonzero=nonzero) for _ in range(200)]
        want = [random_element_oracle(F, oracle_rng, nonzero) for _ in range(200)]
        assert got == want
        assert rng.getstate() == oracle_rng.getstate()
        assert not nonzero or all(got)


def test_rationals_have_no_element_walk():
    with pytest.raises(TypeError, match=r"^Q is not finite$"):
        rational_field().elements()


def test_each_field_op_has_its_own_profile_label():
    """cProfile keys a function by `cProfile.label` of its code (file, line,
    name).  Each extension field compiles its own payload ops, filed under
    the field and the role, and its table closures are copies named for it,
    so a profile over products in two fields reports both."""
    F, G = (extension_field(p, k, _find_irreducible(p, k)) for p, k in ((3, 4), (5, 3)))
    for op in ("_add", "_sub", "_neg", "_mul", "_inv"):
        assert cProfile.label(getattr(F, op).__code__) != cProfile.label(
            getattr(G, op).__code__), op
    assert F._add.__code__.co_filename == "<leonard.fields GF(3^4) add>"
    assert F._mul.__code__.co_name == "GF(3^4) mul"
    big = extension_field(3, 8, _find_irreducible(3, 8))  # past the table cap
    assert big._mul.__code__.co_filename == "<leonard.fields GF(3^8) mul>"
    assert [sigma and sigma.__code__.co_filename for sigma in big._chain] == [
        "<leonard.fields GF(3^8) frobenius^1 image>", None,
        "<leonard.fields GF(3^8) frobenius^3 image>", None]
    linear = embed_map(F, big).__defaults__[-1]  # the compiled image of lift
    assert linear.__code__.co_filename == "<leonard.fields GF(3^8) from GF(3^4) image>"

    profile = cProfile.Profile()
    pairs = [(field.element(i), field.element(i + 1)) for field in (F, G)
             for i in range(1, 50)]
    profile.enable()
    for a, b in pairs:
        a * b
    profile.disable()
    names = {name for _, _, name in pstats.Stats(profile).stats}
    assert {"GF(3^4) mul", "GF(5^3) mul"} <= names
