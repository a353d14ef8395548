"""Constructive classification of parameter arrays.

Given a validated array, recover the closed form of its eigenvalue sequences
(exponential, quadratic, alternating, or the characteristic-2 shape), derive
the family scalars, and certify the answer by regenerating the array from
them.  When the required scalars live in a quadratic extension the witness is
produced there; over the rationals the needed extension is reported instead
of built.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .errors import NeedsFieldExtension, NoCaseMatched, SingularMatrix
from .fields import Field, FieldElement, splitting_field
from .families import (
    FAMILIES,
    FamilyParams,
    _FORMS,
    _QPowers,
    generate,
    ordinary_eigenvalues,
    q_eigenvalues,
)
from .parray import ParameterArray, base_candidates, make_array
from .splitmat import SquareMatrix


@dataclass(frozen=True, eq=False)
class ClassifierWitness:
    case: str
    family: str
    q: FieldElement
    field: Field
    embed: Callable[[FieldElement], FieldElement]
    intermediates: dict[str, FieldElement]
    params: FamilyParams


def embed_array(p: ParameterArray, field: Field,
                fn: Callable[[FieldElement], FieldElement]) -> ParameterArray:
    return make_array(field,
                      [fn(x) for x in p.theta],
                      [fn(x) for x in p.theta_star],
                      [fn(x) for x in p.varphi],
                      [fn(x) for x in p.phi])


def _identity(x: FieldElement) -> FieldElement:
    return x


def fit_closed_form_theta(theta: Sequence[FieldElement], q: FieldElement,
                          case: str) -> Optional[tuple]:
    """Fit (eta, mu, h) to an eigenvalue sequence for one classification case:

      I    theta_i = eta + mu q^i + h q^(-i)
      II   theta_i = eta + (mu + h) i + h i^2
      III  theta_i = eta + mu (-1)^i + 2 h i (-1)^i

    Checks every index; None when the shape does not fit.  For d = 1 the
    underdetermined direction is pinned: mu = 0 in cases I and III, h = 0
    in case II.
    """
    if len(theta) < 2:
        raise ValueError("need at least two eigenvalues")
    F = theta[0].field
    d = len(theta) - 1
    zero, one = F.zero(), F.one()

    if case == "I":
        if q == zero or q == one or q == -one:
            return None
        if d == 1:
            h = (theta[1] - theta[0]) / (q.inverse() - 1)
            eta, mu = theta[0] - h, zero
        else:
            rows = [[one, q ** i, q ** (-i)] for i in range(3)]
            try:
                eta, mu, h = SquareMatrix.from_rows(F, rows).solve(list(theta[:3]))
            except SingularMatrix:
                return None
        if list(theta) != q_eigenvalues(_QPowers(q), d, eta, mu, h):
            return None
        return eta, mu, h

    if case == "II":
        if F.characteristic() == 2:
            return None
        if d == 1:
            eta, mu, h = theta[0], theta[1] - theta[0], zero
        else:
            h = (theta[2] - theta[1] - (theta[1] - theta[0])) / F.from_int(2)
            mu = theta[1] - theta[0] - 2 * h
            eta = theta[0]
        if list(theta) != ordinary_eigenvalues(F.from_int, d, eta, mu, h):
            return None
        return eta, mu, h

    if case == "III":
        if F.characteristic() == 2:
            return None
        if d == 1:
            eta = theta[0]
            mu = zero
            h = (theta[0] - theta[1]) / F.from_int(2)
        else:
            h = (theta[2] - theta[0]) / F.from_int(4)
            mu = (theta[0] - theta[1]) / F.from_int(2) - h
            eta = theta[0] - mu
        for i in range(d + 1):
            sign = one if i % 2 == 0 else -one
            if theta[i] != eta + (mu + 2 * h * F.from_int(i)) * sign:
                return None
        return eta, mu, h

    raise ValueError(f"unknown case {case!r}")


def _compose(outer: Callable, inner: Callable) -> Callable:
    if inner is _identity:
        return outer
    if outer is _identity:
        return inner
    return lambda x: outer(inner(x))


def _make_witness(case: str, family: str, q: FieldElement, field: Field,
                  embed: Callable, inter: dict, d: int,
                  values: dict, source: ParameterArray,
                  lift: Callable) -> ClassifierWitness:
    """Assemble the witness and certify it by regenerating the array."""
    params = FamilyParams(family=family, d=d, values=values)
    regenerated = generate(params, field)
    if regenerated != embed_array(source, field, lift):
        raise NoCaseMatched(
            f"{family} scalars recovered for case {case} fail to regenerate "
            f"the array")
    return ClassifierWitness(case=case, family=family, q=q, field=field,
                             embed=embed, intermediates=inter, params=params)


def _normal_form(p: ParameterArray, case: str, q: FieldElement) -> Optional[dict]:
    """Fit p to the normal form of case I or II (families._FORMS) at base q:
    theta and theta*, then tau from varphi_1, then both split sequences.
    The fitted coordinates, or None where any of them does not fit."""
    fit = fit_closed_form_theta(p.theta, q, case)
    fit_star = fit_closed_form_theta(p.theta_star, q, case)
    if fit is None or fit_star is None:
        return None
    eta, mu, h = fit
    etas, mus, hs = fit_star
    d = p.d
    if case == "I":
        P = _QPowers(q)
        tau = (p.varphi[0] / ((q - 1) * (P(d) - 1))
               + mu * mus + h * hs * P(-1 - d))
    else:
        P = p.field.from_int
        # A verified quadratic fit of an injective sequence forces char 0 or
        # > d, so dividing by d is safe.
        tau = p.varphi[0] / P(d) + (mu * hs + h * mus) + h * hs * P(d + 2)
    if _FORMS[case][1](P, d, mu, mus, h, hs, tau) != (list(p.varphi), list(p.phi)):
        return None
    return {"eta": eta, "mu": mu, "h": h, "eta_star": etas, "mu_star": mus,
            "h_star": hs, "tau": tau}


def _from_table(case: str, p: ParameterArray, field: Field, q: FieldElement,
                data: dict, lift: Callable,
                source: ParameterArray) -> Optional[ClassifierWitness]:
    """Name the family whose pattern of vanishing normal-form coordinates
    matches `data`, recover its scalars, and certify them.  p lives in
    `field`; lift maps the source field into it."""
    c = SimpleNamespace(**data)
    coords = (c.mu, c.mu_star, c.h, c.h_star, c.tau)
    family = next((name for name, fam in FAMILIES.items() if fam.case == case
                   and all(want is None or bool(x) == want
                           for want, x in zip(fam.pattern, coords))), None)
    if family is None:
        return None
    fam = FAMILIES[family]
    named = {"theta0": p.theta[0], "thetastar0": p.theta_star[0],
             **fam.scalars(c, q, p.d)}
    ext, lift2 = field, _identity
    if fam.roots is not None:
        total, product = fam.roots(c, q, p.d)
        ext, lift2, (r1, r2) = splitting_field(field, -total, product)
    values = {k: lift2(v) for k, v in named.items()}
    if fam.roots is not None:
        values.update(r1=r1, r2=r2)
    inter = {k: lift2(v) for k, v in data.items()}
    both = _compose(lift2, lift)
    return _make_witness(case, family, lift2(q), ext, both, inter, p.d,
                         values, source, both)


def _case1(p: ParameterArray, field: Field, lift: Callable,
           roots: tuple, source: ParameterArray) -> Optional[ClassifierWitness]:
    """p lives in `field`; lift maps the source field into it."""
    data, q = None, None
    seen = []
    for candidate in roots:
        if any(candidate == r for r in seen):
            continue
        seen.append(candidate)
        data = _normal_form(p, "I", candidate)
        if data is not None:
            q = candidate
            break
    if data is None:
        return None

    mu, h = data["mu"], data["h"]
    mus, hs = data["mu_star"], data["h_star"]
    # Prefer the orientation with h* present; a pure-ascending theta beside a
    # two-sided theta* also flips, matching the family displays.
    if (not hs) or (mu and not h and mus and hs):
        q = q.inverse()
        data = _normal_form(p, "I", q)
        if data is None:
            return None
    return _from_table("I", p, field, q, data, lift, source)


def _case2(p: ParameterArray) -> Optional[ClassifierWitness]:
    one = p.field.one()
    data = _normal_form(p, "II", one)
    if data is None:
        return None
    return _from_table("II", p, p.field, one, data, _identity, p)


def _case3(p: ParameterArray) -> Optional[ClassifierWitness]:
    F = p.field
    fit = fit_closed_form_theta(p.theta, -F.one(), "III")
    fit_star = fit_closed_form_theta(p.theta_star, -F.one(), "III")
    if fit is None or fit_star is None:
        return None
    eta, mu, h = fit
    etas, mus, hs = fit_star
    if not h or not hs:
        return None
    d = p.d
    N = F.from_int
    s = 1 - mu / h
    ss = 1 - mus / hs
    total = N(d + 1) - s - ss  # r1 + r2
    four = N(4) * h * hs
    if d % 2 == 0:
        # phi_1 sits on the odd branch and pins r2 alone.
        r2 = p.varphi[0] / (four * N(d)) - 1
        r1 = total - r2
        ext, lift = F, _identity
    else:
        c = -p.varphi[0] / four      # (1 + r1)(1 + r2)
        product = c - 1 - total
        ext, lift, (r1, r2) = splitting_field(F, -total, product)
    values = {"theta0": lift(p.theta[0]), "thetastar0": lift(p.theta_star[0]),
              "h": lift(h), "hstar": lift(hs), "s": lift(s), "sstar": lift(ss),
              "r1": r1, "r2": r2}
    inter = {k: lift(v) for k, v in
             {"eta": eta, "mu": mu, "h": h, "eta_star": etas,
              "mu_star": mus, "h_star": hs}.items()}
    return _make_witness("III", "bannai-ito", -ext.one(), ext, lift, inter,
                         d, values, p, lift)


def _case4(p: ParameterArray) -> Optional[ClassifierWitness]:
    F = p.field
    if F.characteristic() != 2 or p.d != 3:
        return None
    th, ths = p.theta, p.theta_star
    h = th[0] + th[2]
    hs = ths[0] + ths[2]
    if not h or not hs:
        return None
    s = (th[0] + th[3]) / h
    ss = (ths[0] + ths[3]) / hs
    r = p.varphi[0] / (h * hs)
    values = {"theta0": th[0], "thetastar0": ths[0],
              "h": h, "hstar": hs, "s": s, "sstar": ss, "r": r}
    inter = {"h": h, "s": s, "h_star": hs, "s_star": ss, "r": r}
    return _make_witness("IV", "orphan", F.one(), F, _identity, inter,
                         3, values, p, _identity)


def _first_case1_base(field: Field) -> Optional[FieldElement]:
    if not field.is_finite():
        return field.from_int(2)
    zero, one = field.zero(), field.one()
    for x in field.elements():
        if x != zero and x != one and x != -one:
            return x
    return None


def classify(p: ParameterArray) -> ClassifierWitness:
    """Classify a validated array; returns a witness whose params regenerate
    it over the witness field.

    Raises NeedsFieldExtension when the witness requires a quadratic
    extension that is not built automatically (rational base field, or an
    extension degree beyond the supported bound), and NoCaseMatched when no
    closed form fits.
    """
    if p.d < 1:
        raise ValueError("classification needs d >= 1")
    F = p.field
    one = F.one()

    if p.d >= 3:
        bc = base_candidates(p)
        if bc.kind == "in_field":
            q1, q2 = bc.roots
            if q1 == one:
                w = _case4(p) if F.characteristic() == 2 else _case2(p)
            elif q1 == -one:
                w = _case3(p)
            else:
                w = _case1(p, F, _identity, (q1, q2), p)
        else:
            c0, c1, _ = bc.quadratic
            ext, lift, roots = splitting_field(F, c1, c0)
            w = _case1(embed_array(p, ext, lift), ext, lift, roots, p)
        if w is None:
            raise NoCaseMatched(
                f"no eigenvalue closed form fits this array over {F}")
        return w

    # Below d = 3 the cases overlap, so try them in a fixed order and
    # prefer whichever stays in the ground field; an extension request is
    # only surfaced when nothing else fits.
    deferred = None
    if F.characteristic() != 2:
        for attempt in (_case2, _case3):
            try:
                w = attempt(p)
            except NoCaseMatched:
                w = None
            except NeedsFieldExtension as e:
                deferred = deferred or e
                w = None
            if w is not None:
                return w
    q = _first_case1_base(F)
    if q is not None:
        try:
            w = _case1(p, F, _identity, (q,), p)
        except (NoCaseMatched, NeedsFieldExtension):
            w = None
        if w is not None:
            return w
    if deferred is not None:
        raise deferred
    raise NoCaseMatched(f"no eigenvalue closed form fits this array over {F}")
