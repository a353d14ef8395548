"""Parameter arrays of Leonard systems: the container, full validation,
the dihedral symmetry action, base extraction, and exhaustive enumeration.

An array of diameter d is (theta_0..theta_d, theta*_0..theta*_d;
varphi_1..varphi_d, phi_1..phi_d).  The defining conditions are

  PA1  theta injective, theta* injective
  PA2  every varphi_i and phi_i nonzero
  PA3  varphi_i = phi_1 * S_i + (theta*_i - theta*_0)(theta_{i-1} - theta_d)
  PA4  phi_i    = varphi_1 * S_i + (theta*_i - theta*_0)(theta_{d-i+1} - theta_0)
  PA5  (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i) is independent
       of i on 2 <= i <= d-1 and agrees with the starred ratio

where S_i is the partial sum of (theta_h - theta_{d-h}) / (theta_0 - theta_d)
over 0 <= h <= i-1.  PA5 is vacuous for d < 3.

PA3 and PA4 are written once: `_pa34_sums` gives S, which depends on theta
alone, `_pa34_products` the two product terms of each (theta, theta*) pair,
and `_split` the varphi and phi they fix from phi_1.  PA5 is written once as
`_close`, the recurrence theta_{i+1} = theta_{i-2} - (beta + 1)(theta_{i-1}
- theta_i) run from a head, with beta + 1 read off theta's head by `_bp1`.
`split_sequences` (and through it the family generator), `complete_from_theta`
and the enumerator use these; only `validate` keeps its own loops, because
it reports each failing index.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import BadInput, BudgetExceeded, LengthMismatch
from .fields import (TABLE_ORDER_CAP, Field, FieldElement, FieldSpec, json_int,
                     json_key, make_field, quadratic_roots)
from .report import CheckReport


@dataclass(frozen=True)
class ParameterArray:
    field: Field
    d: int
    theta: tuple[FieldElement, ...]
    theta_star: tuple[FieldElement, ...]
    varphi: tuple[FieldElement, ...]
    phi: tuple[FieldElement, ...]

    def to_json(self) -> dict:
        fmt = self.field.format
        return {
            "field": self.field.spec.to_json(),
            "d": self.d,
            "theta": [fmt(x) for x in self.theta],
            "theta_star": [fmt(x) for x in self.theta_star],
            "varphi": [fmt(x) for x in self.varphi],
            "phi": [fmt(x) for x in self.phi],
        }


def make_array(
    field: Field,
    theta: Sequence[FieldElement],
    theta_star: Sequence[FieldElement],
    varphi: Sequence[FieldElement],
    phi: Sequence[FieldElement],
) -> ParameterArray:
    d = len(theta) - 1
    if d < 0:
        raise LengthMismatch("theta must have at least one entry")
    if len(theta_star) != d + 1:
        raise LengthMismatch(f"theta_star needs {d + 1} entries, got {len(theta_star)}")
    if len(varphi) != d:
        raise LengthMismatch(f"varphi needs {d} entries, got {len(varphi)}")
    if len(phi) != d:
        raise LengthMismatch(f"phi needs {d} entries, got {len(phi)}")
    for x in itertools.chain(theta, theta_star, varphi, phi):
        if x.field is not field and x.field.spec != field.spec:
            raise BadInput("entry lies in a different field")
    return ParameterArray(field, d, tuple(theta), tuple(theta_star), tuple(varphi), tuple(phi))


ARRAY_KEYS = ("field", "d", "theta", "theta_star", "varphi", "phi")


def array_from_text(text: "str | bytes") -> ParameterArray:
    """The array of a JSON document, bytes being read as UTF-8.  Raises
    BadInput on bytes that are not UTF-8 and on text that is not JSON or
    nests deeper than the JSON parser goes."""
    try:
        obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:
        raise BadInput(str(e)) from None
    return array_from_json(obj)


def array_from_json(obj: dict) -> ParameterArray:
    """Inverse of ParameterArray.to_json.  Raises BadInput on a key outside
    ARRAY_KEYS, on a missing key, on entries that are not strings and on a
    negative d."""
    if not isinstance(obj, dict):
        raise BadInput("an array must be a JSON object")
    unknown = [key for key in obj if key not in ARRAY_KEYS]
    if unknown:
        raise BadInput(f"unknown key {unknown[0]!r}; an array has the keys "
                       + ", ".join(ARRAY_KEYS))
    field = make_field(FieldSpec.from_json(json_key(obj, "field", "array")))
    d = json_int(json_key(obj, "d", "array"), "d")

    def entries(key: str) -> tuple[FieldElement, ...]:
        raw = json_key(obj, key, "array")
        if not isinstance(raw, list):
            raise BadInput(f"{key} must be a list of strings")
        for s in raw:
            if not isinstance(s, str):
                raise BadInput(f"{key} entries must be strings, got {s!r}")
        return tuple(field.parse(s) for s in raw)

    theta = entries("theta")
    theta_star = entries("theta_star")
    varphi = entries("varphi")
    phi = entries("phi")
    if d < 0:
        raise BadInput(f"d must be at least 0, got {d}")
    if len(theta) != d + 1:
        raise LengthMismatch(f"theta needs {d + 1} entries, got {len(theta)}")
    return make_array(field, theta, theta_star, varphi, phi)


# ---------------------------------------------------------------------------
# validation


CONDITIONS = ("PA1", "PA2", "PA3", "PA4", "PA5")


def validation_lines(report: CheckReport) -> list[str]:
    """The report of validate as printed: the failures of each condition in
    turn, or `PAn pass` for a condition with none."""
    out = []
    for name in CONDITIONS:
        out += [f for f in report.failures if f.startswith(name + " ")] or [f"{name} pass"]
    return out


def _pa34_sums(theta: Sequence[FieldElement]) -> Optional[list[FieldElement]]:
    """S_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d) for
    i = 1..d, or None when theta_0 = theta_d makes them undefined."""
    d, den = len(theta) - 1, theta[0] - theta[-1]
    if not den:
        return None
    inv = den.inverse()
    return list(itertools.accumulate((theta[h] - theta[d - h]) * inv for h in range(d)))


def _pa34_products(theta: Sequence[FieldElement],
                   theta_star: Sequence[FieldElement]) -> tuple[list, list]:
    """(c, e) for i = 1..d, where PA3 reads varphi_i = phi_1 S_i + c_i and
    PA4 reads phi_i = varphi_1 S_i + e_i.  S depends on theta alone, so a
    caller with many theta* for one theta takes `_pa34_sums` once."""
    d, ts0 = len(theta) - 1, theta_star[0]
    diffs = [theta_star[i] - ts0 for i in range(1, d + 1)]
    c = [diffs[i - 1] * (theta[i - 1] - theta[d]) for i in range(1, d + 1)]
    e = [diffs[i - 1] * (theta[d - i + 1] - theta[0]) for i in range(1, d + 1)]
    return c, e


def _split(sums: list, c: list, e: list, phi_1: FieldElement) -> tuple[tuple, tuple]:
    """(varphi, phi) from PA3 with phi_1 prescribed, then PA4 with the
    varphi_1 it gives.  PA4 at i = 1 gives phi_1 back: S_1 = 1, and
    e_1 = -c_1."""
    varphi = tuple(phi_1 * s + x for s, x in zip(sums, c))
    return varphi, tuple(varphi[0] * s + y for s, y in zip(sums, e))


def split_sequences(theta: Sequence[FieldElement], theta_star: Sequence[FieldElement],
                    phi_1: FieldElement) -> Optional[tuple[tuple, tuple]]:
    """(varphi, phi) by PA3 and PA4 from phi_1 (see `_split`), or None when
    theta_0 = theta_d."""
    sums = _pa34_sums(theta)
    if sums is None:
        return None
    return _split(sums, *_pa34_products(theta, theta_star), phi_1)


def validate(p: ParameterArray) -> CheckReport:
    """Check PA1 through PA5, reporting every violation with witnesses.  Each
    failure reads `PAn fail at [indices]: detail`, condition by condition."""
    rep = CheckReport("validate")

    def fail(condition: str, indices: tuple[int, ...], detail: str) -> None:
        rep.add(f"{condition} fail at {list(indices)}: {detail}")

    d = p.d
    for name, seq in (("theta", p.theta), ("theta*", p.theta_star)):
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                if seq[i] == seq[j]:
                    fail("PA1", (i, j), f"{name}_{i} = {name}_{j} = {seq[i]}")
    for i in range(1, d + 1):
        if not p.varphi[i - 1]:
            fail("PA2", (i,), f"varphi_{i} = 0")
        if not p.phi[i - 1]:
            fail("PA2", (i,), f"phi_{i} = 0")
    if d >= 1:
        sums = _pa34_sums(p.theta)
        if sums is None:
            fail("PA3", (0, d), "theta_0 = theta_d leaves the sum undefined")
            fail("PA4", (0, d), "theta_0 = theta_d leaves the sum undefined")
        else:
            c, e = _pa34_products(p.theta, p.theta_star)
            for i, (s, x) in enumerate(zip(sums, c), 1):
                want = p.phi[0] * s + x
                if p.varphi[i - 1] != want:
                    fail("PA3", (i,), f"varphi_{i} = {p.varphi[i-1]}, expected {want}")
            for i, (s, y) in enumerate(zip(sums, e), 1):
                want = p.varphi[0] * s + y
                if p.phi[i - 1] != want:
                    fail("PA4", (i,), f"phi_{i} = {p.phi[i-1]}, expected {want}")
    if d >= 3:
        # Each ratio is kept as (numerator, denominator) and two ratios are
        # compared by their cross-products, so no inverse is taken unless a
        # failure line prints a quotient.
        ratios: list[Optional[tuple[FieldElement, FieldElement]]] = []
        for i in range(2, d):
            den = p.theta[i - 1] - p.theta[i]
            den_s = p.theta_star[i - 1] - p.theta_star[i]
            if not den or not den_s:
                fail("PA5", (i,), "zero denominator (theta repeats)")
                ratios.append(None)
                continue
            num = p.theta[i - 2] - p.theta[i + 1]
            num_s = p.theta_star[i - 2] - p.theta_star[i + 1]
            if num * den_s != num_s * den:
                fail("PA5", (i,), f"theta ratio {num / den} != theta* ratio {num_s / den_s}")
            ratios.append((num, den))
        for i in range(len(ratios) - 1):
            a, b = ratios[i], ratios[i + 1]
            if a is not None and b is not None and a[0] * b[1] != b[0] * a[1]:
                fail("PA5", (i + 2, i + 3),
                     f"ratio changes: {a[0] / a[1]} then {b[0] / b[1]}")
    return rep


# ---------------------------------------------------------------------------
# dihedral symmetry

# A reversed sequence is the one read from the top end: theta_{d-i}, and
# phi_{d-i+1} for 1 <= i <= d.
_D4_MAP = {
    "star": lambda p: ParameterArray(p.field, p.d, p.theta_star, p.theta,
                                     p.varphi, p.phi[::-1]),
    "down": lambda p: ParameterArray(p.field, p.d, p.theta, p.theta_star[::-1],
                                     p.phi[::-1], p.varphi[::-1]),
    "ddown": lambda p: ParameterArray(p.field, p.d, p.theta[::-1], p.theta_star,
                                      p.phi, p.varphi),
}


def d4_apply(p: ParameterArray, word: Sequence[str]) -> ParameterArray:
    """Apply a word over {star, down, ddown} left to right."""
    for gen in word:
        try:
            p = _D4_MAP[gen](p)
        except KeyError:
            raise BadInput(f"unknown generator {gen!r}") from None
    return p


# ---------------------------------------------------------------------------
# base extraction


def beta_plus_one(p: ParameterArray) -> Optional[FieldElement]:
    """The common value (theta_{i-2}-theta_{i+1})/(theta_{i-1}-theta_i), or
    None for d < 3 where every scalar is a base."""
    return _bp1(p.theta) if p.d >= 3 else None


def _bp1(seq: Sequence[FieldElement]) -> FieldElement:
    """beta + 1 read off the head of a sequence of at least 4 entries."""
    return (seq[0] - seq[3]) / (seq[1] - seq[2])


@dataclass(frozen=True)
class BaseCandidates:
    """Solutions q of q^2 - beta*q + 1 = 0.

    kind is "any" (d < 3), "in_field" (roots attached, a double root listed
    twice) or "quadratic_only" (monic coefficients attached, low degree
    first, so a caller can build the extension)."""

    kind: str
    roots: Optional[tuple[FieldElement, FieldElement]] = None
    quadratic: Optional[tuple[FieldElement, FieldElement, FieldElement]] = None


def base_candidates(p: ParameterArray) -> BaseCandidates:
    bp1 = beta_plus_one(p)
    if bp1 is None:
        return BaseCandidates("any")
    beta = bp1 - 1
    roots = quadratic_roots(p.field, -beta, p.field.one())
    if roots is not None:
        return BaseCandidates("in_field", roots=roots)
    return BaseCandidates(
        "quadratic_only", quadratic=(p.field.one(), -beta, p.field.one())
    )


def first_case1_base(field: Field) -> Optional[FieldElement]:
    """A base for case I below d = 3, where every scalar is a base: 2 over
    the rationals, else the first element in field order other than 0 and
    +-1, or None when the field has none."""
    if not field.is_finite():
        return field.from_int(2)
    zero, one = field.zero(), field.one()
    for x in field.elements():
        if x != zero and x != one and x != -one:
            return x
    return None


# ---------------------------------------------------------------------------
# completion and enumeration


def complete_from_theta(
    field: Field,
    theta: Sequence[FieldElement],
    theta_star: Sequence[FieldElement],
    phi_1: FieldElement,
) -> Optional[ParameterArray]:
    """The unique candidate array with the given eigenvalue sequences and
    phi_1, or None when no valid array exists.

    theta and theta* must already be injective with theta_0 != theta_d.
    varphi and phi are `split_sequences`; the candidate survives only if PA2
    holds and both sequences are PA5's closures of their heads.
    """
    d = len(theta) - 1
    if d < 1 or len(theta_star) != d + 1:
        raise LengthMismatch("need matching theta and theta* with d >= 1")
    splits = split_sequences(theta, theta_star, phi_1)
    if splits is None:
        return None
    varphi, phi = splits
    if not all(varphi) or not all(phi):
        return None
    if d >= 3:
        bp1 = _bp1(theta)
        if (_close(theta[:4], d, bp1) != tuple(theta)
                or _close(theta_star[:3], d, bp1) != tuple(theta_star)):
            return None
    return ParameterArray(field, d, tuple(theta), tuple(theta_star), varphi, phi)


# The budget of enumerate_arrays and of `leonard enumerate` when none is given.
DEFAULT_BUDGET = 10_000_000


def enumerate_arrays(
    field: Field,
    d: int,
    budget: Optional[int] = DEFAULT_BUDGET,
    shard: Optional[tuple[int, int]] = None,
) -> Iterator[ParameterArray]:
    """Every valid parameter array of diameter d over a finite field, each
    exactly once, in lexicographic order of (theta tuple, theta* tuple,
    phi_1) under the field's element order.

    Nothing is tried against the full grid.  For d >= 3, PA5 fixes theta
    from its head theta_0..theta_3 and theta* from theta*_0..theta*_2 with
    the same beta + 1, so theta runs over heads closed by the recurrence and
    theta* over its heads closed the same way; a closure that repeats an
    entry is dropped (`_close`).  PA3 and PA4 make every varphi_i and phi_i
    affine in phi_1 (`_pa34_sums`, `_pa34_products`), so the phi_1 that break
    PA2 are solved for, not tried, and each array is built by `_split`.

    The field is never listed: heads and phi_1 are walked by element index
    and built with `field.element` as they are reached, so the work is that
    of the pairs examined and the arrays taken, on a field of any order.
    The last TABLE_ORDER_CAP elements built are kept for the walks that
    follow, so a field up to that order builds each element once.

    Each (theta, theta*) pair examined counts one against the budget, which
    must be at least 0: every theta* head paired with a theta that survives
    its closure and the shard.  shard=(index, count), 0 <= index < count,
    keeps only theta tuples whose rank among all (d+1)-permutations of the
    field is congruent to index mod count, so shards partition the output.
    Each theta the shard skips counts one against the budget too, as a pair
    does, so a shard far from the start stops at the budget instead of
    ranking every theta before its first.
    Bad arguments raise at the call, before any array is asked for.
    """
    if not field.is_finite():
        raise BadInput("enumeration requires a finite field")
    if d < 1:
        raise BadInput("enumeration requires d >= 1")
    if shard is not None and not 0 <= shard[0] < shard[1]:
        raise BadInput(f"shard {shard[0]}:{shard[1]} needs 0 <= index < count")
    if budget is not None and budget < 0:
        raise BadInput(f"budget must be at least 0, got {budget}")
    return _arrays(field, d, budget, shard)


def _close(head: tuple[FieldElement, ...], d: int,
           bp1: Optional[FieldElement]) -> Optional[tuple[FieldElement, ...]]:
    """head extended to d + 1 entries by PA5's recurrence
    x_{i+1} = x_{i-2} - (beta + 1)(x_{i-1} - x_i), or None when an entry
    repeats.  A repeat is found in the set of payloads seen so far, so a
    closure costs O(d).  A head of d + 1 entries is returned as it is."""
    seq = list(head)
    seen = {x.value for x in seq}
    for i in range(len(head) - 1, d):
        seq.append(seq[i - 2] - bp1 * (seq[i - 1] - seq[i]))
        seen.add(seq[-1].value)
        if len(seen) < len(seq):
            return None
    return tuple(seq)


def _rank(seq: Sequence[FieldElement], field: Field) -> int:
    """The position of an injective seq among all len(seq)-permutations of
    the field's elements in lexicographic order, read off its Lehmer code."""
    q, rank, used = field.order(), 0, []
    for k, x in enumerate(seq):
        a = field.index_of(x)
        rank = rank * (q - k) + a - sum(u < a for u in used)
        used.append(a)
    return rank


def _injective(element, q: int, m: int, head: tuple = (),
               used: tuple = ()) -> Iterator[tuple[FieldElement, ...]]:
    """The m-tuples of distinct elements of a field of order q extending
    head, whose entries have the indices used, in lexicographic order of
    index (the order of itertools.permutations).  Each element is built by
    element(index) when the walk reaches it, so the work is that of the
    tuples taken."""
    for i in range(q):
        if i not in used:
            t = head + (element(i),)
            if len(t) == m:
                yield t
            else:
                yield from _injective(element, q, m, t, used + (i,))


def _arrays(field: Field, d: int, budget: Optional[int],
            shard: Optional[tuple[int, int]]) -> Iterator[ParameterArray]:
    q = field.order()
    if q < d + 1:
        return
    element = functools.lru_cache(maxsize=TABLE_ORDER_CAP)(field.element)
    pairs = itertools.count(1)

    def spend() -> None:
        if budget is not None and next(pairs) > budget:
            raise BudgetExceeded(
                f"enumeration budget {budget} exhausted at d={d} over {field}"
            )

    for head in _injective(element, q, min(d, 3) + 1):
        bp1 = _bp1(head) if d >= 3 else None
        theta = _close(head, d, bp1)
        if theta is None:
            continue
        if shard is not None and _rank(theta, field) % shard[1] != shard[0]:
            spend()  # a theta the shard skips costs one, as a pair does
            continue
        # With S_1 = 1, varphi_1 = phi_1 + c_1.  Where S_i != 0, varphi_i and
        # phi_i vanish at phi_1 = -c_i / S_i and phi_1 = -e_i / S_i - c_1.
        # Where S_i = 0 they are c_i and e_i, products of differences of
        # distinct entries, so that i excludes no phi_1.
        sums = _pa34_sums(theta)
        scales = [(i, -s.inverse()) for i, s in enumerate(sums) if s]
        for star_head in _injective(element, q, min(d, 2) + 1):
            spend()
            theta_star = _close(star_head, d, bp1)
            if theta_star is None:
                continue
            c, e = _pa34_products(theta, theta_star)
            bad = {c[i] * t for i, t in scales} | {e[i] * t - c[0] for i, t in scales}
            # element 0 is zero, so the phi_1 walk starts at index 1
            for phi_1 in map(element, range(1, q)):
                if phi_1 not in bad:
                    yield ParameterArray(field, d, theta, theta_star,
                                         *_split(sums, c, e, phi_1))
