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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, LengthMismatch
from .fields import (Field, FieldElement, FieldSpec, json_int, json_key,
                     make_field, quadratic_roots)
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
        if x.field.spec != field.spec:
            raise ValueError("entry lies in a different field")
    return ParameterArray(field, d, tuple(theta), tuple(theta_star), tuple(varphi), tuple(phi))


ARRAY_KEYS = ("field", "d", "theta", "theta_star", "varphi", "phi")


def array_from_json(obj: dict) -> ParameterArray:
    """Inverse of ParameterArray.to_json.  Raises ValueError on a key outside
    ARRAY_KEYS, on a missing key and on entries that are not strings."""
    if not isinstance(obj, dict):
        raise ValueError("an array must be a JSON object")
    unknown = [key for key in obj if key not in ARRAY_KEYS]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; an array has the keys "
                         + ", ".join(ARRAY_KEYS))
    field = make_field(FieldSpec.from_json(json_key(obj, "field", "array")))
    d = json_int(json_key(obj, "d", "array"), "d")

    def entries(key: str) -> tuple[FieldElement, ...]:
        raw = json_key(obj, key, "array")
        if not isinstance(raw, list):
            raise ValueError(f"{key} must be a list of strings")
        for s in raw:
            if not isinstance(s, str):
                raise ValueError(f"{key} entries must be strings, got {s!r}")
        return tuple(field.parse(s) for s in raw)

    theta = entries("theta")
    theta_star = entries("theta_star")
    varphi = entries("varphi")
    phi = entries("phi")
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


def _pa34_terms(theta: Sequence[FieldElement],
                theta_star: Sequence[FieldElement]) -> Optional[tuple[list, list, list]]:
    """(S, c, e) for i = 1..d, where PA3 reads varphi_i = phi_1 S_i + c_i and
    PA4 reads phi_i = varphi_1 S_i + e_i, or None when theta_0 = theta_d."""
    sums = _pa34_sums(theta)
    if sums is None:
        return None
    d, ts0 = len(theta) - 1, theta_star[0]
    c = [(theta_star[i] - ts0) * (theta[i - 1] - theta[d]) for i in range(1, d + 1)]
    e = [(theta_star[i] - ts0) * (theta[d - i + 1] - theta[0]) for i in range(1, d + 1)]
    return sums, c, e


def split_sequences(theta: Sequence[FieldElement], theta_star: Sequence[FieldElement],
                    phi_1: FieldElement) -> Optional[tuple[list, list]]:
    """(varphi, phi) from PA3 with phi_1 prescribed, then PA4 with the
    varphi_1 it gives, or None when theta_0 = theta_d.  PA4 at i = 1 gives
    phi_1 back: S_1 = 1, and e_1 = -c_1."""
    terms = _pa34_terms(theta, theta_star)
    if terms is None:
        return None
    sums, c, e = terms
    varphi = [phi_1 * s + x for s, x in zip(sums, c)]
    return varphi, [varphi[0] * s + y for s, y in zip(sums, e)]


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
        terms = _pa34_terms(p.theta, p.theta_star)
        if terms is None:
            fail("PA3", (0, d), "theta_0 = theta_d leaves the sum undefined")
            fail("PA4", (0, d), "theta_0 = theta_d leaves the sum undefined")
        else:
            sums, c, e = terms
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

def _star(p: ParameterArray) -> ParameterArray:
    d = p.d
    return ParameterArray(
        p.field,
        d,
        p.theta_star,
        p.theta,
        p.varphi,
        tuple(p.phi[d - j] for j in range(1, d + 1)),
    )


def _down(p: ParameterArray) -> ParameterArray:
    d = p.d
    return ParameterArray(
        p.field,
        d,
        p.theta,
        tuple(p.theta_star[d - i] for i in range(d + 1)),
        tuple(p.phi[d - j] for j in range(1, d + 1)),
        tuple(p.varphi[d - j] for j in range(1, d + 1)),
    )


def _ddown(p: ParameterArray) -> ParameterArray:
    d = p.d
    return ParameterArray(
        p.field,
        d,
        tuple(p.theta[d - i] for i in range(d + 1)),
        p.theta_star,
        p.phi,
        p.varphi,
    )


_D4_MAP = {"star": _star, "down": _down, "ddown": _ddown}


def d4_apply(p: ParameterArray, word: Sequence[str]) -> ParameterArray:
    """Apply a word over {star, down, ddown} left to right."""
    for gen in word:
        try:
            p = _D4_MAP[gen](p)
        except KeyError:
            raise ValueError(f"unknown generator {gen!r}") from None
    return p


# ---------------------------------------------------------------------------
# base extraction


def beta_plus_one(p: ParameterArray) -> Optional[FieldElement]:
    """The common value (theta_{i-2}-theta_{i+1})/(theta_{i-1}-theta_i), or
    None for d < 3 where every scalar is a base."""
    if p.d < 3:
        return None
    return (p.theta[0] - p.theta[3]) / (p.theta[1] - p.theta[2])


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
    and PA5 hold.
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
        first = None
        for i in range(2, d):
            r = (theta[i - 2] - theta[i + 1]) / (theta[i - 1] - theta[i])
            r_s = (theta_star[i - 2] - theta_star[i + 1]) / (
                theta_star[i - 1] - theta_star[i]
            )
            if r != r_s:
                return None
            if first is None:
                first = r
            elif r != first:
                return None
    return ParameterArray(
        field, d, tuple(theta), tuple(theta_star), tuple(varphi), tuple(phi)
    )


def enumerate_arrays(
    field: Field,
    d: int,
    budget: Optional[int] = 10_000_000,
    shard: Optional[tuple[int, int]] = None,
) -> Iterator[ParameterArray]:
    """Every valid parameter array of diameter d over a finite field, each
    exactly once, in lexicographic order of (theta tuple, theta* tuple,
    phi_1) under the field's element order.

    Nothing is tried against the full grid.  For d >= 3, PA5 fixes theta
    from its head theta_0..theta_3 and theta* from theta*_0..theta*_2 with
    the same beta + 1, so theta runs over heads closed by the recurrence and
    theta* over its heads closed the same way; a closure that repeats an
    entry is dropped.  PA3 and PA4 make every varphi_i and phi_i affine in
    phi_1, so the phi_1 that break PA2 are solved for, not tried.

    Each (theta, theta*) pair examined counts one against the budget, which
    must be at least 0: every theta* head paired with a theta that survives
    its closure and the shard.  shard=(index, count), 0 <= index < count,
    keeps only theta tuples whose rank among all (d+1)-permutations of the
    field is congruent to index mod count, so shards partition the output.
    Bad arguments raise at the call, before any array is asked for.
    """
    if not field.is_finite():
        raise TypeError("enumeration requires a finite field")
    if d < 1:
        raise ValueError("enumeration requires d >= 1")
    if shard is not None and not 0 <= shard[0] < shard[1]:
        raise ValueError(f"shard {shard[0]}:{shard[1]} needs 0 <= index < count")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    return _arrays(field, d, budget, shard)


def _close(head: tuple[FieldElement, ...], d: int,
           bp1: Optional[FieldElement]) -> Optional[tuple[FieldElement, ...]]:
    """head extended to d + 1 entries by PA5's recurrence
    x_{i+1} = x_{i-2} - (beta + 1)(x_{i-1} - x_i), or None when an entry
    repeats.  A head of d + 1 entries is returned as it is."""
    seq = list(head)
    for i in range(len(head) - 1, d):
        x = seq[i - 2] - bp1 * (seq[i - 1] - seq[i])
        if x in seq:
            return None
        seq.append(x)
    return tuple(seq)


def _rank(seq: Sequence[FieldElement], index: dict, q: int) -> int:
    """The position of an injective seq among all len(seq)-permutations of
    the q field elements in lexicographic order, read off its Lehmer code."""
    rank, used = 0, []
    for k, x in enumerate(seq):
        a = index[x]
        rank = rank * (q - k) + a - sum(u < a for u in used)
        used.append(a)
    return rank


def _arrays(field: Field, d: int, budget: Optional[int],
            shard: Optional[tuple[int, int]]) -> Iterator[ParameterArray]:
    elems = list(field.elements())
    q = len(elems)
    if q < d + 1:
        return
    nonzero = [x for x in elems if x]
    index = {x: k for k, x in enumerate(elems)}
    pairs = 0
    for head in itertools.permutations(elems, min(d, 3) + 1):
        bp1 = (head[0] - head[3]) / (head[1] - head[2]) if d >= 3 else None
        theta = _close(head, d, bp1)
        if theta is None:
            continue
        if shard is not None and _rank(theta, index, q) % shard[1] != shard[0]:
            continue
        # With a_i = theta_{i-1} - theta_d, b_i = theta_{d-i+1} - theta_0 and
        # D_i = theta*_i - theta*_0, PA3 reads varphi_i = phi_1 S_i + D_i a_i
        # and PA4 reads phi_i = (phi_1 + D_1 a_1) S_i + D_i b_i, because
        # varphi_1 = phi_1 + D_1 a_1 (S_1 = 1).  Where S_i != 0 they vanish
        # at phi_1 = D_i (-a_i / S_i) and phi_1 = D_i (-b_i / S_i) - D_1 a_1.
        # Where S_i = 0 they are D_i a_i and D_i b_i, products of differences
        # of distinct entries, so that i excludes no phi_1.
        sums = _pa34_sums(theta)
        a = [theta[i - 1] - theta[d] for i in range(1, d + 1)]
        b = [theta[d - i + 1] - theta[0] for i in range(1, d + 1)]
        roots = [(i, -x / s, -y / s)
                 for i, (s, x, y) in enumerate(zip(sums, a, b)) if s]
        for star_head in itertools.permutations(elems, min(d, 2) + 1):
            pairs += 1
            if budget is not None and pairs > budget:
                raise BudgetExceeded(
                    f"enumeration budget {budget} exhausted at d={d} over {field}"
                )
            theta_star = _close(star_head, d, bp1)
            if theta_star is None:
                continue
            diffs = [x - theta_star[0] for x in theta_star[1:]]
            c1 = diffs[0] * a[0]
            bad = set()
            for i, u, w in roots:
                bad.add(diffs[i] * u)
                bad.add(diffs[i] * w - c1)
            phis = [x for x in nonzero if x not in bad]
            if not phis:
                continue
            c = [D * x for D, x in zip(diffs, a)]
            e = [D * y for D, y in zip(diffs, b)]
            for phi_1 in phis:
                varphi_1 = phi_1 + c1
                yield ParameterArray(
                    field, d, theta, theta_star,
                    tuple(phi_1 * s + x for s, x in zip(sums, c)),
                    tuple(varphi_1 * s + y for s, y in zip(sums, e)))
