"""Named parameter-array families and their terminating series forms.

Each family turns a short list of scalars into a full parameter array.  Every
family is a row of one table, FAMILIES, and every list of families is a view
of it.  Each row places its scalars in one of the four classification normal
forms: case I for the q-families, II for the ordinary ones, III for
Bannai-Ito and IV for the orphan, which exists at d = 3 in characteristic 2.
A form gives theta, theta* and varphi_1; PA3 and PA4 (parray.split_sequences)
give the rest of varphi and phi, so no closed formula for the split sequences
is kept.  The same normal-form functions build the arrays here and fit arrays
in classify, where each form also solves theta for (eta, mu, h) and varphi_1
for tau.

The preconditions on the scalars are exactly what the formulas need: products
that appear in phi or varphi must not vanish, and the eigenvalue sequences
must stay injective.  Violations are reported by name, not silently fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    BadInput,
    CharacteristicMismatch,
    DenominatorPoleBeforeTermination,
    IdentityViolated,
    PreconditionViolated,
    SeriesDoesNotTerminate,
)
from .fields import Field, FieldElement, FieldSpec, json_int, json_key, make_field
from .parray import (ParameterArray, beta_plus_one, make_array, split_sequences,
                     validate, validation_lines)
from .report import CheckReport

# Every family also takes the two affine offsets.
COMMON_PARAMS = ("theta0", "thetastar0")


def list_families() -> list[str]:
    return list(FAMILIES)


def _row(family: str) -> "Family":
    """A family's row of FAMILIES, or a BadInput for an unknown name."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise BadInput(f"unknown family {family!r}")
    return fam


def family_param_names(family: str) -> tuple[str, ...]:
    return _row(family).params + COMMON_PARAMS


@dataclass(frozen=True)
class FamilyParams:
    """A family, a diameter and one scalar per parameter name.  Built only
    for a known family, with exactly its names and d >= 1; anything else is
    a BadInput."""

    family: str
    d: int
    values: dict[str, FieldElement]

    def __post_init__(self):
        names = family_param_names(self.family)
        for name in self.values:
            if name not in names:
                raise BadInput(f"{self.family} has no parameter {name!r}")
        missing = set(names) - set(self.values)
        if missing:
            raise BadInput(f"missing parameters: {', '.join(sorted(missing))}")
        if self.d < 1:
            raise BadInput("diameter must be at least 1")

    @property
    def field(self) -> Field:
        return next(iter(self.values.values())).field

    def to_json(self) -> dict:
        F = self.field
        return {
            "family": self.family,
            "d": self.d,
            "field": F.spec.to_json(),
            "values": {k: F.format(v) for k, v in self.values.items()},
        }

    @staticmethod
    def from_json(obj: dict) -> "FamilyParams":
        field = make_field(FieldSpec.from_json(json_key(obj, "field", "parameters")))
        given = json_key(obj, "values", "parameters").items()
        return FamilyParams(family=json_key(obj, "family", "parameters"),
                            d=json_int(json_key(obj, "d", "parameters"), "d"),
                            values={k: field.parse(v) for k, v in given})


def characteristic_admissible(family: str, d: int, field: Field) -> bool:
    """Whether the field characteristic allows the family at diameter d."""
    fam = _row(family)
    if not _characteristic_allows(family, d, field.characteristic()):
        return False
    if fam.diameter not in (None, d):
        return False
    # case I: needs a scalar of multiplicative order above d, and q = +-1 is
    # never a base, so GF(3), whose nonzero elements are +-1, hosts none
    if fam.case == "I" and field.is_finite():
        return field.order() - 1 > max(d, 2)
    return True


def _characteristic_allows(family: str, d: int, char: int) -> bool:
    rule = FAMILIES[family].char  # (holds(char, d), what the family needs)
    return rule is None or rule[0](char, d)


def _require(cond: bool, family: str, message: str) -> None:
    if not cond:
        raise PreconditionViolated(f"{family}: requires {message}")


def _check_char(family: str, d: int, field: Field) -> None:
    char = field.characteristic()
    if not _characteristic_allows(family, d, char):
        needs = FAMILIES[family].char[1].format(d=d)
        raise CharacteristicMismatch(f"{family} needs {needs}, field has {char}")


class _QPowers:
    """Cached integer powers of a fixed nonzero scalar; q^-1 is taken once,
    when the first negative power is asked for."""

    def __init__(self, q: FieldElement):
        self.q = q
        self._pos = [q.field.one()]
        self._neg = [q.field.one()]

    def __call__(self, n: int) -> FieldElement:
        if n >= 0:
            cache, step = self._pos, self.q
        else:
            cache, n = self._neg, -n
            if len(cache) == 1:
                cache.append(self.q.inverse())
            step = cache[1]
        while len(cache) <= n:
            cache.append(cache[-1] * step)
        return cache[n]


def _powers(case: str, field: Field,
            q: Optional[FieldElement] = None) -> Callable[[int], FieldElement]:
    """P(n) of a normal form: q^n in case I, else n as a field element."""
    return _QPowers(q) if case == "I" else field.from_int


# The four classification normal forms.  P(n) is q^n (a _QPowers) in case I
# and the integer n as a field element in cases II, III and IV.  Each form's
# `fit` solves theta for (mu, h), and `eta` gives eta from theta_0.  Its
# `varphi1` gives (slope, offset) with varphi_1 = slope tau + offset; PA3 and
# PA4 then fix the rest of varphi and phi (parray.split_sequences).

def q_eigenvalues(P, d, eta, mu, h) -> list[FieldElement]:
    """Case I: theta_i = eta + mu q^i + h q^-i."""
    return [eta + mu * P(i) + h * P(-i) for i in range(d + 1)]


def q_fit(P, theta) -> Optional[tuple]:
    """Case I (mu, h) from D1 = theta_1 - theta_0 and D2 = theta_2 - theta_1:
    D2 - q D1 = h (q^-1 - 1)(q^-1 - q) and D2 - q^-1 D1 = mu (q - 1)(q - q^-1).
    At d = 1, mu = 0.  None when q is 0, 1 or -1."""
    q, one = P(1), P(0)
    if not q or q == one or q == -one:
        return None
    qi, d1 = P(-1), theta[1] - theta[0]
    if len(theta) == 2:
        return theta[0].field.zero(), d1 / (qi - one)
    d2 = theta[2] - theta[1]
    # (q^-1 - 1)(q^-1 - q) = (q - 1)(q - q^-1) / q, so one inverse serves both
    inv = ((q - one) * (q - qi)).inverse()
    return (d2 - qi * d1) * inv, (d2 - q * d1) * q * inv


def q_varphi1(P, d, mu, mus, h, hs) -> tuple:
    """Case I: varphi_1 = (q - 1)(q^d - 1)(tau - mu mu* - h h* q^(-1-d))."""
    slope = (P(1) - 1) * (P(d) - 1)
    return slope, -slope * (mu * mus + h * hs * P(-1 - d))


def ordinary_eigenvalues(P, d, eta, mu, h) -> list[FieldElement]:
    """Case II: theta_i = eta + (mu + h) i + h i^2."""
    slope = mu + h
    return [eta + n * (slope + h * n) for n in map(P, range(d + 1))]


def ordinary_fit(P, theta) -> Optional[tuple]:
    """Case II (mu, h): 2h is the second difference of theta, and h = 0 at
    d = 1.  None in characteristic 2."""
    if not P(2):
        return None
    h = (theta[2] - 2 * theta[1] + theta[0]) / P(2) if len(theta) > 2 else P(0)
    return theta[1] - theta[0] - 2 * h, h


def ordinary_varphi1(P, d, mu, mus, h, hs) -> tuple:
    """Case II: varphi_1 = d (tau - mu h* - h mu* - h h* (d + 2)).  A
    quadratic fit of an injective sequence forces characteristic 0 or above
    d, so d is invertible."""
    return P(d), -P(d) * (mu * hs + h * mus + h * hs * P(d + 2))


def alternating_eigenvalues(P, d, eta, mu, h) -> list[FieldElement]:
    """Case III: theta_i = eta + (mu + 2 h i) (-1)^i."""
    h2 = h + h
    terms = (mu + h2 * n for n in map(P, range(d + 1)))
    return [eta - t if i % 2 else eta + t for i, t in enumerate(terms)]


def alternating_fit(P, theta) -> Optional[tuple]:
    """Case III (mu, h): theta_0 - theta_1 = 2 (mu + h) and theta_2 - theta_0
    = 4h, and mu = 0 at d = 1.  None in characteristic 2."""
    if not P(2):
        return None
    half = (theta[0] - theta[1]) / P(2)
    h = (theta[2] - theta[0]) / P(4) if len(theta) > 2 else half
    return half - h, h


def alternating_varphi1(P, d, mu, mus, h, hs) -> tuple:
    """Case III: varphi_1 = -4 (tau + h h* d + h mu* + mu h*) for odd d,
    where Bannai-Ito's tau is h h* r1 r2, and 4d (tau + h h*) for even d,
    where it is h h* r2.  An injective case-III sequence forces an odd
    characteristic above d/2, so an even d is invertible."""
    if d % 2:
        return -P(4), -P(4) * (h * hs * P(d) + h * mus + mu * hs)
    return P(4 * d), P(4 * d) * h * hs


def orphan_eigenvalues(P, d, eta, mu, h) -> list[FieldElement]:
    """Case IV, at d = 3 in characteristic 2 only: theta_i = eta + mu i
    + h gamma_i with gamma = (0, 1, 1, 0)."""
    gamma = (0, 1, 1, 0)
    return [eta + mu * P(i) + h * P(gamma[i]) for i in range(d + 1)]


def orphan_fit(P, theta) -> Optional[tuple]:
    """Case IV (mu, h) = (theta_3 - theta_0, theta_2 - theta_0).  None
    unless d = 3."""
    if len(theta) != 4:
        return None
    return theta[3] - theta[0], theta[2] - theta[0]


def orphan_varphi1(P, d, mu, mus, h, hs) -> tuple:
    """Case IV: varphi_1 = tau."""
    return P(1), P(0)


class NormalForm(NamedTuple):
    """One case's formulas (see above); classify inverts `eigenvalues` with
    `fit` and `eta`, and `varphi1` for tau."""

    eigenvalues: Callable
    varphi1: Callable  # (P, d, mu, mu*, h, h*) -> (slope, offset)
    eta: Callable  # (theta_0, mu, h) -> eta
    fit: Callable  # (P, theta) -> (mu, h) or None


_FORMS = {"I": NormalForm(q_eigenvalues, q_varphi1,
                          lambda theta0, mu, h: theta0 - mu - h, q_fit),
          "II": NormalForm(ordinary_eigenvalues, ordinary_varphi1,
                           lambda theta0, mu, h: theta0, ordinary_fit),
          "III": NormalForm(alternating_eigenvalues, alternating_varphi1,
                            lambda theta0, mu, h: theta0 - mu, alternating_fit),
          "IV": NormalForm(orphan_eigenvalues, orphan_varphi1,
                           lambda theta0, mu, h: theta0, orphan_fit)}


def _bannai_ito_checks(v, d, N):
    """Bannai-Ito's preconditions after the check of r2, as (holds, message):
    s and s* avoid 2i, then the factors i + r and i - s* - r of the splits
    avoid 0 for r1 at the even i and r2 at the odd i when d is even, and for
    both at the odd i when d is odd."""
    for i in range(1, d + 1):
        yield v.s != N(2 * i), f"s != {2 * i}"
        yield v.sstar != N(2 * i), f"s* != {2 * i}"
    if d % 2 == 0:
        runs = ((range(2, d + 1, 2), ("r1",)), (range(1, d + 1, 2), ("r2",)))
    else:
        runs = ((range(1, d + 1, 2), ("r1", "r2")),)
    for indices, names in runs:
        for i in indices:
            for name in names:
                yield getattr(v, name) != -N(i), f"{name} != -{i}"
            for name in names:
                yield N(i) - v.sstar - getattr(v, name) != 0, f"-s* - {name} != -{i}"


def _orphan_checks(v, d, N):
    """The orphan's preconditions after its nonzero scalars, as (holds,
    message): s and s* not 1, then r off the three values where a split
    vanishes."""
    one = N(1)
    yield v.s != one, "s != 1"
    yield v.sstar != one, "s* != 1"
    yield v.r != v.s + v.sstar, "r != s + s*"
    yield v.r != v.s * (one + v.sstar), "r != s(1 + s*)"
    yield v.r != v.sstar * (one + v.s), "r != s*(1 + s)"


def _bannai_ito_scalars(c, q, d):
    s, sstar = 1 - c.mu / c.h, 1 - c.mu_star / c.h_star
    named = dict(h=c.h, hstar=c.h_star, s=s, sstar=sstar)
    if d % 2 == 0:  # tau = h h* r2
        r2 = c.tau / (c.h * c.h_star)
        named.update(r1=(d + 1) - s - sstar - r2, r2=r2)
    return named


# Characteristic rules: (holds(char, d), what the family needs)
_ABOVE_D = (lambda char, d: char == 0 or char > d, "characteristic 0 or above {d}")
_ODD_ABOVE_HALF_D = (lambda char, d: char == 0 or (char > 2 and 2 * char > d),
                     "characteristic 0 or an odd prime above {d}/2")
_TWO = (lambda char, d: char == 2, "characteristic 2")


def _q_racah_series(v, d, i, j, P):
    """4phi3(q^-i, s* q^(i+1), q^-j, s q^(j+1); r1 q, r2 q, q^-d; q, q), the
    q-Racah display, which the other q-families specialise: a scalar the
    family lacks reads as 0, and r as r1."""
    q, zero = v.q, v.q.field.zero()
    s, ss = getattr(v, "s", zero), getattr(v, "sstar", zero)
    r1, r2 = getattr(v, "r1", getattr(v, "r", zero)), getattr(v, "r2", zero)
    return HypergeomSpec("basic", (P(-i), ss * P(i + 1), P(-j), s * P(j + 1)),
                         (r1 * q, r2 * q, P(-d)), q, q)


@dataclass(frozen=True)
class Family:
    """One row of the family table, the only description of its family.

    `case` is the classification case, one of the normal forms above.
    `params` names the family's scalars in the order sample_params draws
    them.  `coords(v, d, P)` maps the named scalars (attributes of v) to
    (mu, mu*, h, h*, tau); eta and eta* follow from theta0 and thetastar0.
    `scalars(c, q, d)` inverts it for classify, from the fitted c.mu,
    c.mu_star, c.h, c.h_star, c.tau, and `roots(c, q, d)` gives the sum and
    the product of r1 and r2 where they come from a quadratic.  Bannai-Ito's
    tau is h h* r1 r2 for odd d, where `roots` gives that pair, and h h* r2
    for even d, where `roots` gives None and `scalars` gives r1 and r2, whose
    order matters there.  `pattern` says which of (mu, mu*, h, h*, tau) must
    not vanish (True), must vanish (False) or may do either (None).
    `series(v, d, i, j, P)` is the terminating series equal to f_i(theta_j),
    for the families that have one.  `dependent = (message, solve)` is set
    where r2 follows from the other scalars: `solve(v, d, P)` gives it, and
    sample_params fills r2 in with it.  `diameter`, where set, is the only
    d at which the family exists (the orphan's 3).

    The preconditions run in this order: the `diameter`, each name in
    `nonzero` (None: every named scalar) != 0, r2 equal to what `dependent`
    solves (reported by its message), then for 1 <= i <= d (after q^i != 1
    in case I) each factor of `steps`, for 2 <= i <= 2d each factor of
    `doubled`, and last the (holds, message) pairs that `checks(v, d, P)`
    yields.  Case I requires x q^i != 1 for a factor x = a
    or a/b of named scalars ("sstar/r1" reads "s* q^i / r1 != 1"); case II
    requires x != -i for x the first term minus the others, where d and 1 may
    appear ("r-s-d-1").
    """

    case: str
    params: tuple[str, ...]
    char: Optional[tuple[Callable[[int, int], bool], str]] = None
    diameter: Optional[int] = None
    pattern: tuple[Optional[bool], ...] = ()
    nonzero: Optional[tuple[str, ...]] = None
    dependent: Optional[tuple[str, Callable]] = None
    steps: tuple[str, ...] = ()
    doubled: tuple[str, ...] = ()
    checks: Optional[Callable] = None
    coords: Optional[Callable] = None
    scalars: Optional[Callable] = None
    roots: Optional[Callable] = None
    series: Optional[Callable] = None


FAMILIES: dict[str, Family] = {
    "q-racah": Family(
        "I", ("q", "h", "hstar", "s", "sstar", "r1", "r2"),
        pattern=(True, True, True, True, None),
        dependent=("r1 r2 = s s* q^(d+1)",
                   lambda v, d, P: v.s * v.sstar * P(d + 1) / v.r1),
        steps=("r1", "r2", "sstar/r1", "sstar/r2"), doubled=("s", "sstar"),
        coords=lambda v, d, P: (v.h * v.s * v.q, v.hstar * v.sstar * v.q, v.h,
                                v.hstar, v.h * v.hstar * (v.r1 + v.r2) * P(-d)),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star, s=c.mu / (c.h * q),
                                     sstar=c.mu_star / (c.h_star * q)),
        roots=lambda c, q, d: (c.tau / (c.h * c.h_star) * q ** d,
                               c.mu * c.mu_star / (c.h * c.h_star) * q ** (d - 1)),
        series=_q_racah_series),
    "q-hahn": Family(
        "I", ("q", "h", "hstar", "sstar", "r"), pattern=(False, True, True, True, True),
        steps=("r", "sstar/r"), doubled=("sstar",),
        coords=lambda v, d, P: (0, v.hstar * v.sstar * v.q, v.h, v.hstar,
                                v.h * v.hstar * v.r * P(-d)),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star,
                                     sstar=c.mu_star / (c.h_star * q),
                                     r=c.tau / (c.h * c.h_star) * q ** d),
        series=_q_racah_series),
    "dual-q-hahn": Family(
        "I", ("q", "h", "hstar", "s", "r"), pattern=(True, False, True, True, True),
        steps=("r", "s/r"), doubled=("s",),
        coords=lambda v, d, P: (v.h * v.s * v.q, 0, v.h, v.hstar,
                                v.h * v.hstar * v.r * P(-d)),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star, s=c.mu / (c.h * q),
                                     r=c.tau / (c.h * c.h_star) * q ** d),
        series=_q_racah_series),
    "quantum-q-krawtchouk": Family(
        "I", ("q", "hstar", "s", "r"), pattern=(True, False, False, True, True),
        steps=("s/r",),
        coords=lambda v, d, P: (v.s * v.q, 0, 0, v.hstar, v.hstar * v.r * P(-d)),
        scalars=lambda c, q, d: dict(q=q, hstar=c.h_star, s=c.mu / q,
                                     r=c.tau / c.h_star * q ** d),
        series=lambda v, d, i, j, P: HypergeomSpec(
            "basic", (P(-i), P(-j)), (P(-d),), v.s * v.r.inverse() * P(j + 1), v.q)),
    "q-krawtchouk": Family(
        "I", ("q", "h", "hstar", "sstar"), pattern=(False, True, True, True, False),
        doubled=("sstar",),
        coords=lambda v, d, P: (0, v.hstar * v.sstar * v.q, v.h, v.hstar, 0),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star,
                                     sstar=c.mu_star / (c.h_star * q)),
        series=_q_racah_series),
    "affine-q-krawtchouk": Family(
        "I", ("q", "h", "hstar", "r"), pattern=(False, False, True, True, True),
        steps=("r",),
        coords=lambda v, d, P: (0, 0, v.h, v.hstar, v.h * v.hstar * v.r * P(-d)),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star,
                                     r=c.tau / (c.h * c.h_star) * q ** d),
        series=_q_racah_series),
    "dual-q-krawtchouk": Family(
        "I", ("q", "h", "hstar", "s"), pattern=(True, False, True, True, False),
        doubled=("s",),
        coords=lambda v, d, P: (v.h * v.s * v.q, 0, v.h, v.hstar, 0),
        scalars=lambda c, q, d: dict(q=q, h=c.h, hstar=c.h_star, s=c.mu / (c.h * q)),
        series=_q_racah_series),
    "racah": Family(
        "II", ("h", "hstar", "s", "sstar", "r1", "r2"), _ABOVE_D,
        pattern=(None, None, True, True, None), nonzero=("h", "hstar"),
        dependent=("r1 + r2 = s + s* + d + 1",
                   lambda v, d, P: v.s + v.sstar + P(d + 1) - v.r1),
        steps=("r1", "r2", "sstar-r1", "sstar-r2"), doubled=("s", "sstar"),
        coords=lambda v, d, P: (v.h * v.s, v.hstar * v.sstar, v.h, v.hstar,
                                -(v.h * v.hstar * v.r1 * v.r2)),
        scalars=lambda c, q, d: dict(h=c.h, hstar=c.h_star, s=c.mu / c.h,
                                     sstar=c.mu_star / c.h_star),
        roots=lambda c, q, d: (c.mu / c.h + c.mu_star / c.h_star + (d + 1),
                               -c.tau / (c.h * c.h_star)),
        series=lambda v, d, i, j, N: HypergeomSpec(
            "ordinary", (N(-i), N(i + 1) + v.sstar, N(-j), N(j + 1) + v.s),
            (v.r1 + 1, v.r2 + 1, N(-d)), N(1))),
    "hahn": Family(
        "II", ("hstar", "s", "sstar", "r"), _ABOVE_D,
        pattern=(None, None, False, True, None), nonzero=("hstar", "s"),
        steps=("r", "sstar-r"), doubled=("sstar",),
        coords=lambda v, d, P: (v.s, v.hstar * v.sstar, 0, v.hstar,
                                -(v.hstar * v.s * v.r)),
        scalars=lambda c, q, d: dict(hstar=c.h_star, s=c.mu,
                                     sstar=c.mu_star / c.h_star,
                                     r=-c.tau / (c.mu * c.h_star)),
        series=lambda v, d, i, j, N: HypergeomSpec(
            "ordinary", (N(-i), N(i + 1) + v.sstar, N(-j)), (v.r + 1, N(-d)), N(1))),
    "dual-hahn": Family(
        "II", ("h", "s", "sstar", "r"), _ABOVE_D,
        pattern=(None, None, True, False, None), nonzero=("h", "sstar"),
        steps=("r", "r-s-d-1"), doubled=("s",),
        coords=lambda v, d, P: (v.h * v.s, v.sstar, v.h, 0, -(v.h * v.sstar * v.r)),
        scalars=lambda c, q, d: dict(h=c.h, s=c.mu / c.h, sstar=c.mu_star,
                                     r=-c.tau / (c.h * c.mu_star)),
        series=lambda v, d, i, j, N: HypergeomSpec(
            "ordinary", (N(-i), N(-j), N(j + 1) + v.s), (v.r + 1, N(-d)), N(1))),
    "krawtchouk": Family(
        "II", ("r", "s", "sstar"), _ABOVE_D,
        pattern=(None, None, False, False, None),
        checks=lambda v, d, P: [(v.r != v.s * v.sstar, "r != s s*")],
        coords=lambda v, d, P: (v.s, v.sstar, 0, 0, -v.r),
        scalars=lambda c, q, d: dict(s=c.mu, sstar=c.mu_star, r=-c.tau),
        series=lambda v, d, i, j, N: HypergeomSpec(
            "ordinary", (N(-i), N(-j)), (N(-d),), v.s * v.sstar * v.r.inverse())),
    "bannai-ito": Family(
        "III", ("h", "hstar", "s", "sstar", "r1", "r2"), _ODD_ABOVE_HALF_D,
        pattern=(None, None, True, True, None), nonzero=("h", "hstar"),
        dependent=("r1 + r2 = -s - s* + d + 1",
                   lambda v, d, P: P(d + 1) - v.s - v.sstar - v.r1),
        checks=_bannai_ito_checks,
        coords=lambda v, d, P: (v.h * (1 - v.s), v.hstar * (1 - v.sstar), v.h,
                                v.hstar,
                                v.h * v.hstar * (v.r1 * v.r2 if d % 2 else v.r2)),
        scalars=_bannai_ito_scalars,
        roots=lambda c, q, d: (c.mu / c.h + c.mu_star / c.h_star + (d - 1),
                               c.tau / (c.h * c.h_star)) if d % 2 else None),
    "orphan": Family(
        "IV", ("h", "hstar", "s", "sstar", "r"), _TWO, diameter=3,
        pattern=(None, None, True, True, None), checks=_orphan_checks,
        coords=lambda v, d, P: (v.h * v.s, v.hstar * v.sstar, v.h, v.hstar,
                                v.h * v.hstar * v.r),
        scalars=lambda c, q, d: dict(h=c.h, hstar=c.h_star, s=c.mu / c.h,
                                     sstar=c.mu_star / c.h_star,
                                     r=c.tau / (c.h * c.h_star))),
}

# Views of the table, in its order.
FAMILY_PARAMS = {name: fam.params for name, fam in FAMILIES.items()}
Q_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.case == "I")
ORDINARY_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.case == "II")
# Families whose polynomials have a terminating series display.
CLOSED_FORM_FAMILIES = tuple(name for name, fam in FAMILIES.items()
                             if fam.series is not None)


def _factor(expr: str, case: str, v, d: int) -> FieldElement:
    """Value of a precondition factor (see Family)."""
    terms = [d if t == "d" else 1 if t == "1" else getattr(v, t)
             for t in expr.split("/" if case == "I" else "-")]
    if case == "I":
        return terms[0] / terms[1] if len(terms) == 2 else terms[0]
    x = terms[0]
    for t in terms[1:]:
        x = x - t
    return x


def _factor_fails(expr: str, case: str, i: int) -> str:
    """The message of a failed precondition factor at index i."""
    shown = [t.replace("star", "*") for t in expr.split("/" if case == "I" else "-")]
    if case == "I":
        return " / ".join([f"{shown[0]} q^{i}"] + shown[1:]) + " != 1"
    return " - ".join(shown) + f" != -{i}"


def _check_factors(family: str, case: str, factors: list, P, i: int) -> None:
    if factors:
        bad = P(-i) if case == "I" else -P(i)  # x q^i = 1, or x = -i
        for expr, x in factors:
            if x == bad:
                _require(False, family, _factor_fails(expr, case, i))


def _check_preconditions(family: str, fam: Family, v, d: int, P) -> None:
    """Raise PreconditionViolated at the first of the family's preconditions
    that fails, in table order."""
    _require(fam.diameter in (None, d), family, f"diameter {fam.diameter}")
    for name in fam.params if fam.nonzero is None else fam.nonzero:
        _require(bool(getattr(v, name)), family, f"{name} != 0")
    if fam.dependent is not None:
        message, solve = fam.dependent
        _require(v.r2 == solve(v, d, P), family, message)
    steps = [(expr, _factor(expr, fam.case, v, d)) for expr in fam.steps]
    for i in range(1, d + 1):
        if fam.case == "I":
            _require(P(i) != P(0), family, f"q^{i} != 1")
        _check_factors(family, fam.case, steps, P, i)
    doubled = [(expr, _factor(expr, fam.case, v, d)) for expr in fam.doubled]
    for i in range(2, 2 * d + 1):
        _check_factors(family, fam.case, doubled, P, i)
    for holds, message in fam.checks(v, d, P) if fam.checks else ():
        _require(holds, family, message)


def _from_normal_form(family: str, field: Field, d: int, values: dict):
    fam = FAMILIES[family]
    v = SimpleNamespace(**values)
    P = _powers(fam.case, field, getattr(v, "q", None))
    _check_preconditions(family, fam, v, d, P)
    mu, mus, h, hs, tau = fam.coords(v, d, P)
    form = _FORMS[fam.case]
    eta, etas = form.eta(v.theta0, mu, h), form.eta(v.thetastar0, mus, hs)
    theta = form.eigenvalues(P, d, eta, mu, h)
    theta_star = form.eigenvalues(P, d, etas, mus, hs)
    # The preconditions keep theta injective, so theta_0 != theta_d.  The
    # ddown image of the array reverses theta and swaps varphi with phi, so
    # split_sequences of reversed theta from varphi_1 gives (phi, varphi).
    slope, offset = form.varphi1(P, d, mu, mus, h, hs)
    phi, varphi = split_sequences(theta[::-1], theta_star, slope * tau + offset)
    return theta, theta_star, varphi, phi


def family_base(fp: FamilyParams, field: Field) -> FieldElement:
    """The scalar whose powers structure the family's eigenvalues: q in
    case I, -1 in case III, 1 in cases II and IV."""
    case = FAMILIES[fp.family].case
    if case == "I":
        return fp.values["q"]
    return -field.one() if case == "III" else field.one()


def generate(fp: FamilyParams, field: Field) -> ParameterArray:
    """Instantiate a family; raises PreconditionViolated or
    CharacteristicMismatch when the scalars do not fit the field."""
    for name, value in fp.values.items():
        if value.field != field:
            raise ValueError(f"parameter {name} lives in {value.field}, not {field}")
    _check_char(fp.family, fp.d, field)

    p = make_array(field, *_from_normal_form(fp.family, field, fp.d, fp.values))
    rep = validate(p)
    if not rep.ok():
        raise IdentityViolated(
            "family output failed validation: " + "; ".join(validation_lines(rep)))
    if fp.d >= 3:
        base = family_base(fp, field)
        if base + base.inverse() + 1 != beta_plus_one(p):
            raise IdentityViolated("family output has the wrong eigenvalue ratio")
    return p


@dataclass(frozen=True)
class HypergeomSpec:
    """A terminating series: 'basic' uses q-shifted factorials, 'ordinary'
    uses rising factorials."""

    kind: str
    numerator: tuple[FieldElement, ...]
    denominator: tuple[FieldElement, ...]
    z: FieldElement
    q: Optional[FieldElement] = None


def hypergeom_sum(spec: HypergeomSpec, terms: int) -> FieldElement:
    """Sum the series until a numerator factor kills it.

    Raises DenominatorPoleBeforeTermination if a denominator factor vanishes
    first, SeriesDoesNotTerminate if no numerator factor vanishes within
    the given number of terms.
    """
    if spec.kind not in ("basic", "ordinary"):
        raise ValueError(f"unknown series kind {spec.kind!r}")
    some = spec.numerator[0] if spec.numerator else spec.z
    field = some.field
    one = field.one()
    acc = one
    term = one
    # Basic series carry the standard balancing factor when the parameter
    # counts are unequal.
    imbalance = 1 + len(spec.denominator) - len(spec.numerator)
    for n in range(1, terms + 1):
        if spec.kind == "basic":
            q = spec.q
            qn1 = q ** (n - 1)
            num_factors = [one - a * qn1 for a in spec.numerator]
            den_factors = [one - b * qn1 for b in spec.denominator]
            den_factors.append(one - q ** n)
            extra = ((-one) * qn1) ** imbalance if imbalance else one
        else:
            shift = field.from_int(n - 1)
            num_factors = [a + shift for a in spec.numerator]
            den_factors = [b + shift for b in spec.denominator]
            den_factors.append(field.from_int(n))
            extra = one
        if any(f == field.zero() for f in num_factors):
            return acc
        for f in den_factors:
            if f == field.zero():
                raise DenominatorPoleBeforeTermination(
                    f"denominator factor vanishes at term {n}")
        step = extra * spec.z
        for f in num_factors:
            step = step * f
        for f in den_factors:
            step = step * f.inverse()
        term = term * step
        acc = acc + term
    raise SeriesDoesNotTerminate(f"no numerator factor vanished in {terms} terms")


def closed_form_spec(fp: FamilyParams, i: int, j: int) -> HypergeomSpec:
    """The terminating series equal to f_i(theta_j) for display families."""
    fam = FAMILIES[fp.family]
    if fam.series is None:
        raise ValueError(f"{fp.family} has no terminating series display")
    v = SimpleNamespace(**fp.values)
    P = _powers(fam.case, fp.field, getattr(v, "q", None))
    return fam.series(v, fp.d, i, j, P)


def verify_closed_form(p: ParameterArray, fp: FamilyParams) -> CheckReport:
    """Evaluate the terminating series against f_i(theta_j) for all i, j."""
    from .analysis import Analysis

    report = CheckReport("closed-form")
    table = Analysis(p).polys
    d = p.d
    for i in range(d + 1):
        for j in range(d + 1):
            spec = closed_form_spec(fp, i, j)
            got = hypergeom_sum(spec, d + 2)
            want = table.P.rows[j][i]
            if got != want:
                report.add(f"series value differs from f_{i}(theta_{j})")
    return report


def _random_nonzero(field: Field, rng: random.Random,
                    exclude: Sequence[FieldElement] = ()) -> FieldElement:
    while True:
        x = field.random_element(rng)
        if x and all(x != e for e in exclude):
            return x


# Draws sample_params makes before it gives up on a family.
_SAMPLE_TRIES = 400


def sample_params(family: str, d: int, field: Field,
                  rng: random.Random) -> Optional[FamilyParams]:
    """Rejection-sample admissible parameters; None when the field cannot
    host the family at this diameter (or the sampler runs out of tries).
    The row's scalars are drawn nonzero in row order, q also not +-1, and
    r2 is solved from the others where the row has a `dependent`."""
    if not characteristic_admissible(family, d, field):
        return None
    fam = FAMILIES[family]
    one = field.one()
    for _ in range(_SAMPLE_TRIES):
        values: dict[str, FieldElement] = {
            "theta0": field.random_element(rng),
            "thetastar0": field.random_element(rng),
        }
        try:
            for name in fam.params:
                if name != "r2" or fam.dependent is None:
                    exclude = (one, -one) if name == "q" else ()
                    values[name] = _random_nonzero(field, rng, exclude)
            if fam.dependent is not None:
                v = SimpleNamespace(**values)
                P = _powers(fam.case, field, getattr(v, "q", None))
                values["r2"] = fam.dependent[1](v, d, P)
            fp = FamilyParams(family=family, d=d, values=values)
            generate(fp, field)
            return fp
        except PreconditionViolated:
            continue
    return None
