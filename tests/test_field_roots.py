"""Finite-field root finding and primality against brute-force oracles.

The oracles are the element scans and the trial divisions that the field
layer used before it moved to Tonelli-Shanks, the trace-one formula,
equal-degree splitting, Miller-Rabin and Rabin's irreducibility test, and
the two polynomial libraries it used before its one arithmetic on payloads:
int lists mod p, and lists of FieldElements.

`parent_sqrt`, `parent_roots_odd` and `parent_extension_branch` are the
Tonelli-Shanks square root, the odd-characteristic quadratic solver and the
odd-characteristic extension branch of `splitting_field` as they were
before the constants of Tonelli-Shanks were taken once per field and the
square root of a discriminant was taken in the ground field, unchanged
apart from the names they call: each took two powerings per square root,
an inverse of 2 per call, and a Tonelli-Shanks run in GF(p^2k) per split.
"""

import itertools
import random
import time
from math import isqrt
from typing import Sequence

import pytest

from leonard import (
    FieldElement,
    ZeroToNegativePower,
    embed_map,
    extension_field,
    prime_field,
    quadratic_roots,
    rational_field,
    splitting_field,
)
from leonard import fields
from leonard.fields import (
    TABLE_ORDER_CAP,
    _find_irreducible,
    _first_nonsquare,
    _irreducible,
    _is_prime,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
LIMIT = 3**5


def oracle_quadratic_roots(field, b, c):
    found = []
    for e in field.elements():
        if not (e * e + b * e + c):
            found.append(e)
            if len(found) == 2:  # a quadratic has no third root
                break
    if not found:
        return None
    if len(found) == 1:
        return (found[0], found[0])
    return (found[0], found[1])


def oracle_embed_images(src, dst):
    """Image of every source element when w goes to the first root of the
    source modulus in destination element order."""
    if src.spec.kind == "prime":
        return [dst.from_int(x.value) for x in src.elements()]
    mod = src.spec.modulus
    for root in dst.elements():
        acc = dst.zero()
        for coef in reversed(mod):
            acc = acc * root + coef
        if not acc:
            break
    powers = [root**i for i in range(src.spec.k)]
    return [sum((pw * coef for coef, pw in zip(x.value, powers)), dst.zero())
            for x in src.elements()]


def field_of(p, k):
    return prime_field(p) if k == 1 else extension_field(p, k, _find_irreducible(p, k))


def finite_fields():
    """GF(p) for p <= 31 and every GF(p^k), k >= 2, of order at most 3^5."""
    fields = [prime_field(p) for p in SMALL_PRIMES]
    for p in SMALL_PRIMES:
        k = 2
        while p**k <= LIMIT:
            fields.append(field_of(p, k))
            k += 1
    return fields


def parent_rational_roots(field, b, c):
    """The Q branch of quadratic_roots before Q took the odd-characteristic
    path: its own discriminant, perfect-square test and +- formula."""
    disc = b * b - 4 * c
    num, den = disc.value
    if num < 0:
        return None
    # num/den is in lowest terms, so it is a square iff num and den both are
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    root = field._elements[rn, rd]
    half = field.from_int(2).inverse()
    return ((-b + root) * half, (-b - root) * half)


def test_quadratic_roots_over_q_match_the_old_branch():
    """Seeded (b, c) over Q whose discriminant is a square, a non-square,
    negative, zero or a square that is not an integer: the same roots, in
    the same order ('+' root first, unsorted), or None."""
    Q = rational_field()
    rng = random.Random("rational roots")
    kinds = {"square": 0, "non-square": 0, "negative": 0, "zero": 0, "fraction": 0}
    for _ in range(200):
        b = Q.parse(f"{rng.randint(-50, 50)}/{rng.randint(1, 12)}")
        kind = rng.choice(list(kinds))
        if kind == "non-square":
            disc = Q.parse(f"{rng.choice([2, 3, 5, 6, 7, 8])}/{rng.randint(1, 9) ** 2}")
        else:
            r = Q.parse(f"{rng.randint(1, 40)}/{rng.randint(1, 9)}")
            half_odd = Q.parse(f"{2 * rng.randint(0, 20) + 1}/2")  # 9/4 and the like
            disc = {"square": Q.from_int(rng.randint(1, 30) ** 2), "negative": -r * r,
                    "zero": Q.zero(), "fraction": half_odd * half_odd}[kind]
        kinds[kind] += 1
        c = (b * b - disc) / Q.from_int(4)
        got, want = quadratic_roots(Q, b, c), parent_rational_roots(Q, b, c)
        assert got == want, (b, c)
    assert all(kinds.values()), kinds
    half = Q.parse("1/2")
    assert quadratic_roots(Q, Q.zero(), Q.parse("-9/4")) == (Q.parse("3/2"), Q.parse("-3/2"))
    assert quadratic_roots(Q, Q.from_int(-1), Q.zero()) == (Q.one(), Q.zero())
    assert quadratic_roots(Q, Q.from_int(1), half * half) == (-half, -half)


def test_quadratic_roots_every_pair_in_small_fields():
    small = [F for F in finite_fields() if F.order() <= 32]
    assert len(small) == 18
    for F in small:
        for b, c in itertools.product(list(F.elements()), repeat=2):
            assert quadratic_roots(F, b, c) == oracle_quadratic_roots(F, b, c), (F, b, c)


def test_quadratic_roots_sampled_pairs_in_larger_fields():
    large = [F for F in finite_fields() if F.order() > 32]
    assert [str(F) for F in large] == ["GF(2^6)", "GF(2^7)", "GF(3^4)",
                                       "GF(3^5)", "GF(5^3)", "GF(7^2)",
                                       "GF(11^2)", "GF(13^2)"]
    rng = random.Random(20261017)
    cases = []
    for i in range(2000):
        F = large[i % len(large)]
        cases.append((F, F.random_element(rng), F.random_element(rng)))
    for F in large:
        for _ in range(5):
            x = F.random_element(rng, nonzero=True)
            cases += [(F, F.zero(), x), (F, x, F.zero())]
            if F.characteristic() != 2:
                cases.append((F, x, x * x / 4))  # discriminant 0
    for F, b, c in cases:
        assert quadratic_roots(F, b, c) == oracle_quadratic_roots(F, b, c), (F, b, c)


def test_quadratic_roots_in_large_prime_fields():
    # Tonelli-Shanks with many factors of two in p - 1, and a double root
    for p in (65537, 998244353, 1000000000000000003):
        F = prime_field(p)
        for r1, r2 in ((3, 5), (12345, p - 1), (7, 7), (0, 2)):
            a, b = F.from_int(r1), F.from_int(r2)
            roots = quadratic_roots(F, -(a + b), a * b)
            assert roots == tuple(sorted((a, b), key=F.index_of))
        # x^2 - z for the first non-residue z has no roots
        z = next(F.from_int(n) for n in range(2, p)
                 if F.from_int(n) ** ((p - 1) // 2) != F.one())
        assert quadratic_roots(F, F.zero(), -z) is None


def parent_roots_odd(field, b, c):
    half = field.from_int(2).inverse()
    disc = b * b - 4 * c
    if not disc:
        return (-b * half,) * 2
    root = parent_sqrt(field, disc)
    if root is None:
        return None
    return ((-b + root) * half, (-b - root) * half)


def parent_sqrt(field, a):
    """A square root of the nonzero a in a finite field of odd order, by
    Tonelli-Shanks; None when Euler's criterion finds a non-square."""
    q = field.order()
    t, s = q - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    one = field.one()
    x = a ** ((t + 1) // 2)
    e = a**t  # x^2 = a*e, and e has order 2^i with i <= s
    g = None
    m = s
    while e != one:
        i, e2 = 0, e
        while e2 != one:
            e2 = e2 * e2
            i += 1
        if i == m:
            # only on the first pass: a^((q-1)/2) = e^(2^(s-1)) != 1
            return None
        if g is None:
            g = _first_nonsquare(field) ** t
        for _ in range(m - i - 1):
            g = g * g
        x = x * g
        g = g * g
        e = e * g
        m = i
    return x


def parent_quadratic_roots(field, b, c):
    """The odd-characteristic finite branch of quadratic_roots."""
    roots = parent_roots_odd(field, b, c)
    if roots is None:
        return None
    for r in roots:
        if r * r + b * r + c:
            raise RuntimeError(f"{r} is not a root of x^2 + ({b})*x + ({c})")
    return tuple(sorted(roots, key=field.index_of))


def parent_extension_branch(field, b, c):
    """splitting_field past its quadratic_roots call, for a rootless
    quadratic over GF(p^k), p odd, with 2k within the supported degree."""
    k2 = field.spec.k * 2
    ext = extension_field(field.spec.p, k2, _find_irreducible(field.spec.p, k2))
    lift = embed_map(field, ext)
    roots = parent_quadratic_roots(ext, lift(b), lift(c))
    if roots is None:  # cannot happen: a quadratic splits one step up
        raise RuntimeError("quadratic failed to split in its splitting field")
    return ext, lift, roots


def split_like_the_parent(F, b, c):
    """splitting_field(F, b, c) has the parent's extension and the parent's
    roots, payload for payload and in order; its result is returned."""
    ext, lift, roots = splitting_field(F, b, c)
    want_ext, _, want = parent_extension_branch(F, b, c)
    assert ext.spec == want_ext.spec and ext.spec.k == 2 * F.spec.k, (F, b, c)
    assert [r.value for r in roots] == [r.value for r in want], (F, b, c)
    return ext, lift, roots


def rootless(F, pairs):
    """The pairs (b, c) for which x^2 + b*x + c has no root in F."""
    return [(b, c) for b, c in pairs if quadratic_roots(F, b, c) is None]


def test_splitting_field_takes_the_root_in_the_ground_field():
    """Every rootless x^2 + b*x + c over GF(9), GF(25) and GF(27) splits as
    the parent split it, and its roots are those the scan of the extension
    finds."""
    for p, k in ((3, 2), (5, 2), (3, 3)):
        F = field_of(p, k)
        cases = rootless(F, itertools.product(list(F.elements()), repeat=2))
        assert len(cases) == (F.order() ** 2 - F.order()) // 2
        for b, c in cases:
            ext, lift, roots = split_like_the_parent(F, b, c)
            assert roots == oracle_quadratic_roots(ext, lift(b), lift(c)), (F, b, c)


def test_splitting_field_above_the_table_cap_matches_the_parent():
    """Every rootless quadratic of GF(49), whose extension GF(7^4) is above
    the table cap, and seeded samples over GF(81), GF(125), GF(5^4) and
    GF(1000003^2)."""
    F = field_of(7, 2)
    cases = rootless(F, itertools.product(list(F.elements()), repeat=2))
    assert len(cases) == 49 * 48 // 2
    for b, c in cases:
        split_like_the_parent(F, b, c)
    for p, k in ((3, 4), (5, 3), (5, 4), (1000003, 2)):
        F = field_of(p, k)
        rng = random.Random(f"ground-field-root/{p}/{k}")
        cases = rootless(F, ((F.random_element(rng), F.random_element(rng))
                             for _ in range(80)))
        assert len(cases) >= 20, (F, len(cases))
        for b, c in cases:
            ext, lift, (r1, r2) = split_like_the_parent(F, b, c)
            assert ext.order() > TABLE_ORDER_CAP
            assert r1 + r2 == -lift(b) and r1 * r2 == lift(c) and r1 != r2


LARGE_PRIMES = (65537, 998244353, 1000000000000000003)


def test_sqrt_matches_the_parent():
    """On random squares and random elements, non-squares about half of
    them, of every odd field of finite_fields() and of three large prime
    fields: the same root, or None for both."""
    odd = [F for F in finite_fields() if F.characteristic() != 2]
    odd += [prime_field(p) for p in LARGE_PRIMES]
    for F in odd:
        rng = random.Random(f"sqrt/{F}")
        z = _first_nonsquare(F)
        xs = [F.random_element(rng, nonzero=True) for _ in range(40)]
        cases = [x * x for x in xs] + xs + [z * x * x for x in xs[:10]]
        seen = set()
        for a in cases:
            got, want = fields._sqrt(F, a), parent_sqrt(F, a)
            assert got == want, (F, a)
            assert got is None or got * got == a, (F, a)
            seen.add(got is None)
        assert seen == {True, False}, F


def test_pow_matches_repeated_multiplication():
    """a**n for n = -20..300 is a, or its inverse, multiplied |n| times
    into one; 0**0 is one, and 0**n raises for n < 0."""
    rng = random.Random("pow")
    for F in (rational_field(), prime_field(7), field_of(3, 2), field_of(3, 8)):
        xs = [F.zero(), F.one(), -F.one()]
        xs += [F.random_element(rng, nonzero=True) for _ in range(3)]
        for a in xs:
            up = [F.one()]
            for _ in range(300):
                up.append(up[-1] * a)
            for n in range(301):
                assert a**n == up[n], (F, a, n)
            if not a:
                for n in range(-20, 0):
                    with pytest.raises(ZeroToNegativePower):
                        a**n
                continue
            down, inv = F.one(), a.inverse()
            for n in range(-1, -21, -1):
                down = down * inv
                assert a**n == down, (F, a, n)
        assert F.zero() ** 0 == F.one()


def test_embed_map_every_subfield():
    pairs = []
    for p in SMALL_PRIMES:
        K = 2
        while p**K <= LIMIT:
            dst = field_of(p, K)
            pairs.append((prime_field(p), dst))
            for k in range(2, K):
                if K % k:
                    continue
                # every monic irreducible of degree k as the source modulus
                for tail in itertools.product(range(p), repeat=k):
                    if _irreducible(tail + (1,), p):
                        pairs.append((extension_field(p, k, tail + (1,)), dst))
            K += 1
    pairs.append((field_of(2, 4), field_of(2, 8)))
    assert len(pairs) == 23
    for src, dst in pairs:
        lift = embed_map(src, dst)
        assert [lift(x) for x in src.elements()] == oracle_embed_images(src, dst), (src, dst)


# dense polynomials over GF(p), the oracle over prime fields
# (coefficient lists of ints, low degree first, trailing zeros trimmed)


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        out[i] = ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
    return _ptrim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    _ptrim(r)
    q = [0] * max(0, len(r) - len(b) + 1)
    binv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c = (r[-1] * binv) % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        _ptrim(r)
        if not r:
            break
    return _ptrim(q), r


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _pdivmod(a, b, p)[1]


# dense polynomials over a finite field, the oracle over every field
# (lists of FieldElements, low degree first, trailing zeros trimmed)


def _xtrim(a: list[FieldElement]) -> list[FieldElement]:
    while a and not a[-1]:
        a.pop()
    return a


def _xeval(a: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = x.field.zero()
    for coef in reversed(a):
        acc = acc * x + coef
    return acc


def _xmod(a: Sequence[FieldElement], m: Sequence[FieldElement]) -> list[FieldElement]:
    """Remainder of a by the monic m."""
    r = list(a)
    dm = len(m) - 1
    for top in range(len(r) - 1, dm - 1, -1):
        c = r[top]
        if c:
            for i in range(dm):
                r[top - dm + i] = r[top - dm + i] - c * m[i]
    return _xtrim(r[:dm])


def _xmulmod(a, b, m) -> list[FieldElement]:
    if not a or not b:
        return []
    out = [m[-1].field.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _xmod(out, m)


def _xpowmod(a, n: int, m) -> list[FieldElement]:
    result, base = [m[-1].field.one()], _xmod(a, m)
    while n:
        if n & 1:
            result = _xmulmod(result, base, m)
        base = _xmulmod(base, base, m)
        n >>= 1
    return result


def _xgcd(a, b) -> list[FieldElement]:
    """Monic gcd; a is monic and nonzero."""
    while b:
        inv = b[-1].inverse()
        b = [coef * inv for coef in b]
        a, b = b, _xmod(a, b)
    return a


def reduced_product(F, a, b):
    """The payload of a*b in GF(p^k): the product of the two polynomials,
    reduced by long division by the modulus."""
    r = _pmod(_pmul(a, b, F.p), F.modulus, F.p)
    return tuple(r + [0] * (F.k - len(r)))


def euclid_inverse(F, a):
    """The payload of a^-1 in GF(p^k), by the extended Euclid loop on a and
    the irreducible modulus."""
    p = F.p
    r0, r1 = list(F.modulus), _ptrim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    # r0 is a nonzero constant gcd because the modulus is irreducible
    c = pow(r0[0], -1, p)
    inv = _ptrim([(c * x) % p for x in s0])
    return tuple(inv + [0] * (F.k - len(inv)))


def test_tables_match_the_convolution_and_euclid():
    """Below TABLE_ORDER_CAP, multiply and inverse are log/antilog lookups;
    the product reduced by polynomial long division and the inverse by the
    extended Euclid loop are their oracles over every element pair."""
    fields = [F for F in finite_fields() if F.spec.kind == "extension"]
    # every other monic irreducible of small degree, among them the source
    # moduli of test_embed_map_every_subfield
    for p, k in ((2, 2), (2, 3), (3, 2)):
        for tail in itertools.product(range(p), repeat=k):
            modulus = tail + (1,)
            if _irreducible(modulus, p) and modulus != _find_irreducible(p, k):
                fields.append(extension_field(p, k, modulus))
    assert len(fields) == 18
    for F in fields:
        assert F.order() <= TABLE_ORDER_CAP and "_mul" in vars(F)
        values = [x.value for x in F.elements()]
        for a in values:
            for b in values:
                assert F._mul(a, b) == reduced_product(F, a, b), (F, a, b)
            if a != F.zero_value:
                assert F._inv(a) == euclid_inverse(F, a), (F, a)


def test_field_above_the_table_cap_keeps_the_axioms():
    F = field_of(3, 7)
    assert F.order() > TABLE_ORDER_CAP and "_mul" not in vars(F)
    rng = random.Random(37)
    one = F.one()
    for _ in range(150):
        a, b = F.random_element(rng), F.random_element(rng)
        c = F.random_element(rng, nonzero=True)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert c * c.inverse() == one and (a / c) * c == a
    w = F.generator()
    assert w ** (F.order() - 1) == one


# Fields above the table cap, with the bytes per coefficient of their
# Kronecker product: the fewest of 1, 2, 4 and 8 that hold k(p-1)^2, and
# None where 8 do not and the convolution is summed term by term.  GF(13^3),
# GF(46349^2) and GF((2^32-5)^2) are the ones where (p-1)^2 alone would pick
# a width too narrow by one step.
ABOVE_THE_CAP = [
    ((101, 2), 2), ((7, 4), 1), ((5, 6), 1), ((3, 7), 1), ((3, 8), 1),
    ((5, 8), 1), ((1000003, 2), 8), ((2**61 - 1, 2), None),
    ((13, 3), 2), ((46349, 2), 8), ((2**32 - 5, 2), None),
]


def operands(F, rng, n):
    """The extreme payloads, all-(p-1), zero and one, then n random ones."""
    top = (F.p - 1,) * F.k  # the largest sums before the reduction
    return [top, F.zero_value, F.one_value] + [F.random_element(rng).value
                                              for _ in range(n)]


def test_fold_multiply_matches_the_reduced_product():
    """Above the cap the product is one int product of the payloads packed
    width bytes per coefficient, or the convolution summed term by term
    where no width of at most 8 bytes holds k(p-1)^2; either folds degrees
    k..2k-2 through the rows of x^(k+j) mod the modulus and reduces mod p
    once per coefficient."""
    for (p, k), width in ABOVE_THE_CAP:
        F = field_of(p, k)
        assert F.order() > TABLE_ORDER_CAP
        if width is None:
            assert F._payload_struct is None and vars(F)["_mul"] == F._fold_mul
        else:
            assert F._payload_struct.size == width * k and "_mul" not in vars(F)
        xs = operands(F, random.Random(f"fold-multiply/{p}/{k}"), 100)
        for a in xs[:3]:
            for b in xs:
                assert F._mul(a, b) == F._mul(b, a) == reduced_product(F, a, b), (F, a, b)
        for a, b in zip(xs[3:], xs[4:]):
            assert F._mul(a, b) == reduced_product(F, a, b), (F, a, b)


def test_itoh_tsujii_inverse_matches_euclid():
    for (p, k), _ in ABOVE_THE_CAP:
        F = field_of(p, k)
        for a in operands(F, random.Random(f"itoh-tsujii/{p}/{k}"), 100):
            if a != F.zero_value:
                assert F._inv(a) == euclid_inverse(F, a), (F, a)


def test_itoh_tsujii_refuses_a_failed_norm():
    # a chain that skips its last step leaves a^r outside GF(p), and the
    # inverse says so rather than return a wrong payload
    F = field_of(3, 8)
    a = F.generator().value
    chain = F._chain
    F._chain = chain[:-1]
    try:
        with pytest.raises(RuntimeError, match="norm"):
            F._inv(a)
    finally:
        F._chain = chain
    assert F._mul(a, F._inv(a)) == F.one_value


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_embed_map_into_a_large_quadratic_extension_is_fast(p):
    """The roots of a GF(p^2) modulus lie in the subfield GF(p^2) of
    GF(p^4), where every element is a square: splitting with a delta from
    GF(p) never succeeds, and the deltas start past them."""
    src, dst = field_of(p, 2), field_of(p, 4)
    start = time.perf_counter()
    lift = embed_map.__wrapped__(src, dst)
    assert time.perf_counter() - start < 5.0
    root = lift(src.generator())
    assert not sum((root**i * c for i, c in enumerate(src.spec.modulus)), dst.zero())
    rng = random.Random(f"large-lift/{p}")
    for _ in range(20):
        x, y = src.random_element(rng), src.random_element(rng)
        assert lift(x * y) == lift(x) * lift(y) and lift(x + y) == lift(x) + lift(y)


def test_embed_map_from_gf5_4_into_gf5_8():
    """GF(5^8) has 390,625 elements, too many for the scan oracle.  The
    moduli are x^4 + 2 and x^8 + 2, so w^2 is a root of the source modulus;
    it is also the smallest of the conjugates that the splitting finds."""
    src, dst = field_of(5, 4), field_of(5, 8)
    lift = embed_map.__wrapped__(src, dst)
    root = lift(src.generator())
    assert not _xeval([dst.from_int(c) for c in src.spec.modulus], root)
    assert root.value == (0, 0, 1, 0, 0, 0, 0, 0)
    rng = random.Random("embed-5-4-into-5-8")
    for _ in range(100):
        x, y = src.random_element(rng), src.random_element(rng)
        assert lift(x + y) == lift(x) + lift(y) and lift(x * y) == lift(x) * lift(y)


# GF(2) and GF(1000003), GF(2^4) with tables, GF(3^8) and GF(5^8) packed
# above the cap, and GF((2^61-1)^2), too wide to pack
POLY_FIELDS = [(2, 1), (1000003, 1), (2, 4), (3, 8), (5, 8), (2**61 - 1, 2)]


def random_poly(F, rng, degree, monic=False):
    """The payloads of a random polynomial of the given degree, [] for
    degree -1; the lead is one when monic, else any nonzero payload."""
    if degree < 0:
        return []
    lead = F.one_value if monic else F.random_element(rng, nonzero=True).value
    return [F.random_element(rng).value for _ in range(degree)] + [lead]


@pytest.mark.parametrize("p, k", POLY_FIELDS)
def test_polynomial_arithmetic_matches_the_oracles(p, k):
    """fields._pmod, _pmulmod, _ppowmod, _pgcd and _peval against the
    FieldElement lists over every field, and _pmod and _pmulmod against
    the int lists over GF(p), on random operands and on monic and
    non-monic moduli.  Each result is a list of trimmed canonical
    payloads: it equals the oracle's payloads, and its lead is nonzero."""
    F = field_of(p, k)
    rng = random.Random(f"payload-polynomials/{p}/{k}")
    big = [F.zero()] * 30 + [F.one()]  # x^30: a product mod it is the product

    def elements(a):
        return [FieldElement(F, c) for c in a]

    def values(a):
        return [x.value for x in a]

    def monic(a):
        inv = a[-1].inverse()
        return [c * inv for c in a]

    def check(got, want):
        assert type(got) is list and got == values(want), (F, got, want)
        assert not got or got[-1] != F.zero_value

    for _ in range(30):
        m = random_poly(F, rng, rng.randint(0, 6), monic=rng.random() < 0.5)
        a, b = (random_poly(F, rng, rng.randint(-1, 12)) for _ in range(2))
        M = monic(elements(m))
        check(fields._pmod(F, a, m), _xmod(elements(a), M))
        check(fields._pmulmod(F, a, b, m), _xmulmod(elements(a), elements(b), M))
        if k == 1:
            assert fields._pmod(F, a, m) == _pmod(a, m, p)
            assert fields._pmulmod(F, a, b, m) == _pmod(_pmul(a, b, p), m, p)
        x = F.random_element(rng)
        assert fields._peval(F, a, x.value) == _xeval(elements(a), x).value
        if len(m) > 1:
            n = rng.choice((0, 1, rng.getrandbits(20)))
            check(fields._ppowmod(F, a, n, m), _xpowmod(elements(a), n, M))
        # A and B share a random factor, so that the gcd is not always one
        G = elements(random_poly(F, rng, rng.randint(0, 3)))
        A, B = (_xmulmod(G, elements(random_poly(F, rng, rng.randint(-1, 5))), big)
                for _ in range(2))
        want = _xgcd(monic(A), B) if A else _xgcd(monic(B), A) if B else []
        check(fields._pgcd(F, values(A), values(B)), want)


def first_root_lift(src, dst):
    """The old embedding: w goes to the first root of the source modulus in
    destination element order, found by a scan, and x to the FieldElement
    sum of its coefficients times the powers of that root."""
    for root in dst.elements():
        acc = dst.zero()
        for coef in reversed(src.spec.modulus):
            acc = acc * root + coef
        if not acc:
            break
    powers = [root**i for i in range(src.spec.k)]

    def lift(x):
        acc = dst.zero()
        for coef, pw in zip(x.value, powers):
            acc = acc + dst.from_int(coef) * pw
        return acc

    return lift


def test_linear_lift_above_the_table_cap():
    rng = random.Random("linear-lift")
    for p, k in ((7, 2), (3, 4), (5, 3)):
        src, dst = field_of(p, k), field_of(p, 2 * k)
        assert src.order() <= TABLE_ORDER_CAP < dst.order()
        lift, oracle = embed_map(src, dst), first_root_lift(src, dst)
        xs = [src.zero(), src.one(), src.generator()]
        xs += [src.random_element(rng) for _ in range(100)]
        for x in xs:
            assert lift(x) == oracle(x), (src, x)
        for x, y in zip(xs, xs[1:] + xs[:1]):
            assert lift(x + y) == lift(x) + lift(y), (src, x, y)
            assert lift(x * y) == lift(x) * lift(y), (src, x, y)


def element_order_split_off_root(f, dst):
    """The old fields._split_off_root: the deltas in element order from
    index p, in every characteristic."""
    one = dst.one_value
    deltas = (dst.element(i).value for i in range(dst.characteristic(), dst.order()))
    while len(f) > 2:
        delta = next(deltas)
        if dst.characteristic() == 2:
            t, s = fields._pmod(dst, [dst.zero_value, delta], f), []
            for _ in range(dst.spec.k):
                s = fields._psub(dst, s, t)
                t = fields._pmulmod(dst, t, t, f)
        else:
            s = fields._psub(dst, fields._ppowmod(dst, [delta, one], (dst.order() - 1) // 2, f),
                             [one])
        h = fields._pgcd(dst, f, s)
        if 2 <= len(h) < len(f):
            f = h
    return dst._neg(f[0])


def test_char2_powers_first_keep_every_embedding(monkeypatch):
    """In characteristic 2 the deltas w^j go first.  For every GF(2^k) in
    GF(2^K), k | K <= 8, the map (the least conjugate root) is the one the
    element order gave, and the splitting takes fewer gcds: 31 in element
    order for GF(2^4) and GF(2^2) in GF(2^8)."""
    gcds = {}

    def counted(*args):
        gcds[order] += 1
        return pgcd(*args)

    pairs = [(k, K) for K in range(2, 9) for k in range(2, K) if K % k == 0]
    assert pairs == [(2, 4), (2, 6), (3, 6), (2, 8), (4, 8)]
    fields_of = {n: field_of(2, n) for n in (2, 3, 4, 6, 8)}
    pgcd = fields._pgcd
    monkeypatch.setattr(fields, "_pgcd", counted)
    for k, K in pairs:
        src, dst = fields_of[k], fields_of[K]
        gcds.update(new=0, old=0)
        order = "new"
        new = embed_map.__wrapped__(src, dst)
        order = "old"
        with monkeypatch.context() as m:
            m.setattr(fields, "_split_off_root", element_order_split_off_root)
            old = embed_map.__wrapped__(src, dst)
        assert [new(x) for x in src.elements()] == [old(x) for x in src.elements()], (k, K)
        assert gcds["new"] <= gcds["old"], (k, K, gcds)
        if K == 8:
            assert gcds == {"new": 5, "old": 31}, (k, gcds)


def trial_division(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 10**5):
        assert _is_prime(n) == trial_division(n), n


def test_is_prime_large_values():
    # a strong pseudoprime to every prime base up to 31; base 37 rejects it
    assert not _is_prime(3825123056546413051)
    assert _is_prime(1000000000000000003)
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * (2**31 + 11))
    assert _is_prime(2**64 - 59)  # the largest prime below 2^64
    with pytest.raises(ValueError, match=r"2\^64"):
        _is_prime(2**64)
    with pytest.raises(ValueError, match=r"2\^64"):
        prime_field(2**64 + 13)


def oracle_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree <= k/2."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        # every monic divisor candidate of this degree
        for idx in range(p**deg):
            cand = [0] * (deg + 1)
            n = idx
            for i in range(deg):
                cand[i] = n % p
                n //= p
            cand[deg] = 1
            if not _pmod(modulus, cand, p):
                return False
    return True


def test_irreducible_matches_trial_division():
    checked = 0
    for p in SMALL_PRIMES:
        k = 1
        while p**k <= LIMIT:
            for tail in itertools.product(range(p), repeat=k):
                modulus = tail + (1,)
                assert _irreducible(modulus, p) == oracle_irreducible(modulus, p), \
                    (p, modulus)
                checked += 1
            k += 1
    assert checked == sum(p**k for p in SMALL_PRIMES for k in range(1, 9)
                          if p**k <= LIMIT)


def candidate(p, k, idx):
    """The monic polynomial of degree k at index idx in coefficient order."""
    coeffs = []
    for _ in range(k):
        coeffs.append(idx % p)
        idx //= p
    return tuple(coeffs) + (1,)


def scan_irreducible(p, k):
    """The first monic irreducible of degree k, by Rabin's test on every
    candidate in index order, the binomials x^k + c among them."""
    return next(m for m in (candidate(p, k, i) for i in range(p**k))
                if _irreducible(m, p))


def test_find_irreducible_matches_the_scan():
    # p = 3 mod 4 has no irreducible binomial of degree 4 or 8, and p = 2
    # mod 3 none of degree 3 or 6; the rest decide inside the binomial block
    for p in SMALL_PRIMES + (37, 43, 47, 59, 67, 71, 79, 83, 101, 103):
        for k in range(2, 9):
            assert _find_irreducible(p, k) == scan_irreducible(p, k), (p, k)


@pytest.mark.parametrize("p", [10007, 1000003, 2**61 - 1, 2**64 - 59])
def test_find_irreducible_is_fast_for_a_large_prime(p):
    """Without the binomial rule, p = 3 mod 4 walks all p binomials at k = 4
    before the first irreducible."""
    start = time.perf_counter()
    found = {k: _find_irreducible.__wrapped__(p, k) for k in range(2, 9)}
    assert time.perf_counter() - start < 5.0
    for k, modulus in found.items():
        assert _irreducible(modulus, p)
        idx = sum(c * p**i for i, c in enumerate(modulus[:-1]))
        # past the binomial block the scan itself is short
        if idx >= p:
            assert not any(_irreducible(candidate(p, k, i), p) for i in range(p, idx))
        else:
            assert modulus[1:-1] == (0,) * (k - 1)


@pytest.mark.parametrize("p, bound", [(1000003, 0.5), (10**18 + 3, 5.0)])
def test_splitting_field_over_a_large_prime_is_fast(p, bound):
    F = prime_field(p)
    # x^2 - z for a non-residue z splits only in GF(p^2)
    z = next(F.from_int(n) for n in range(2, 100)
             if F.from_int(n) ** ((p - 1) // 2) != F.one())
    start = time.perf_counter()
    ext, lift, (r1, r2) = splitting_field(F, F.zero(), -z)
    assert time.perf_counter() - start < bound
    assert ext.spec.k == 2 and ext.spec.modulus == ((-z).value, 0, 1)
    for r in (r1, r2):
        assert r * r == lift(z)
