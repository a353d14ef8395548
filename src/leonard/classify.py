"""Constructive classification of parameter arrays.

Given a validated array, fit theta and theta* to one of the four normal forms
of families._FORMS (exponential, quadratic, alternating, or the
characteristic-2 shape at d = 3) and solve varphi_1 for tau, name the family
whose row matches the fitted coordinates, derive its scalars, and certify the
answer by regenerating the array from them.  That regeneration is the only
comparison of the split sequences: in a validated array PA3 and PA4 fix them
from theta, theta* and varphi_1.  Every case is fitted by one function,
`_fit_case`, and `classify` tries the ordered list of (case, base, field)
candidates that `_candidates` gives.  At d >= 3 that is one candidate: the
base q is a root of q^2 - beta q + 1, solved once by `splitting_field`;
q = 1 gives case II (IV in characteristic 2), q = -1 case III, and any
other root case I, in the ground field or in the quadratic extension the
roots need.  Below d = 3 it is II then III, or case I in characteristic 2.
When the required scalars live in a quadratic extension the witness is
produced there; over the rationals, or past the supported extension degree,
the needed extension is reported instead of built, for an array that
validates.  An array whose base needs the extension is embedded there once:
it is fitted and certified there, and the witness's map from the array's
own field is composed once, from that embedding and the map into the
witness field.  A candidate whose scalars fail to regenerate the array is
no witness, and NoCaseMatched is raised in one place, when every candidate
has failed (besides the d = 0 guard).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .errors import NeedsFieldExtension, NoCaseMatched, PreconditionViolated
from .fields import Field, FieldElement, _identity, splitting_field
from .families import FAMILIES, FamilyParams, NormalForm, _FORMS, _powers, generate
from .parray import (ParameterArray, beta_plus_one, first_case1_base, make_array,
                     validate)


@dataclass(frozen=True, eq=False)
class ClassifierWitness:
    case: str
    family: str
    field: Field
    embed: Callable[[FieldElement], FieldElement]
    params: FamilyParams


def embed_array(p: ParameterArray, field: Field,
                fn: Callable[[FieldElement], FieldElement]) -> ParameterArray:
    return make_array(field,
                      [fn(x) for x in p.theta],
                      [fn(x) for x in p.theta_star],
                      [fn(x) for x in p.varphi],
                      [fn(x) for x in p.phi])


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
    if case not in ("I", "II", "III"):
        raise ValueError(f"unknown case {case!r}")
    return _fit(_FORMS[case], _powers(case, theta[0].field, q), theta)


def _fit(form: NormalForm, P, theta: Sequence[FieldElement]) -> Optional[tuple]:
    """(eta, mu, h) from the form's fit, if its eigenvalues give theta back."""
    fit = form.fit(P, theta)
    if fit is not None:
        fit = (form.eta(theta[0], *fit), *fit)
        if list(theta) == form.eigenvalues(P, len(theta) - 1, *fit):
            return fit
    return None


def _make_witness(case: str, family: str, field: Field, embed: Callable,
                  d: int, values: dict, source: ParameterArray) -> Optional[ClassifierWitness]:
    """Assemble the witness and certify it by regenerating the array, which
    embed maps into `field`; None when the scalars do not regenerate it."""
    params = FamilyParams(family=family, d=d, values=values)
    try:
        regenerated = generate(params, field)
    except PreconditionViolated:
        return None
    if regenerated != embed_array(source, field, embed):
        return None
    return ClassifierWitness(case=case, family=family, field=field,
                             embed=embed, params=params)


def _normal_form(p: ParameterArray, case: str, q: FieldElement) -> Optional[dict]:
    """Fit p to the normal form of case I, II, III or IV (families._FORMS)
    at base q: theta and theta*, then tau from varphi_1.  The fitted
    coordinates, or None where theta or theta* does not fit."""
    form, P = _FORMS[case], _powers(case, p.field, q)
    fit, fit_star = _fit(form, P, p.theta), _fit(form, P, p.theta_star)
    if fit is None or fit_star is None:
        return None
    eta, mu, h = fit
    etas, mus, hs = fit_star
    slope, offset = form.varphi1(P, p.d, mu, mus, h, hs)
    tau = (p.varphi[0] - offset) / slope
    return {"eta": eta, "mu": mu, "h": h, "eta_star": etas, "mu_star": mus,
            "h_star": hs, "tau": tau}


def _from_table(case: str, p: ParameterArray, q: FieldElement,
                data: dict) -> Optional[ClassifierWitness]:
    """Name the family whose pattern of vanishing normal-form coordinates
    matches `data`, recover its scalars, and certify them against p."""
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
    ext, lift, roots = p.field, _identity, ()
    pair = fam.roots(c, q, p.d) if fam.roots is not None else None
    if pair is not None:  # (r1 + r2, r1 r2)
        ext, lift, roots = splitting_field(p.field, -pair[0], pair[1])
    values = {k: lift(v) for k, v in named.items()}
    values.update(zip(("r1", "r2"), roots))
    return _make_witness(case, family, ext, lift, p.d, values, p)


def _fit_case(p: ParameterArray, case: str, q: FieldElement) -> Optional[ClassifierWitness]:
    """Fit p to the normal form of `case` at base q and name its family.
    The case-I form fits at q exactly when it fits at 1/q (mu and h swap,
    tau gains q^(d+1)), so one root of q^2 - beta q + 1 decides.  It prefers
    the orientation with h* present; a pure-ascending theta beside a
    two-sided theta* also flips, matching the family displays."""
    data = _normal_form(p, case, q)
    if data is not None and case == "I" and (not data["h_star"] or (
            data["mu"] and not data["h"] and data["mu_star"])):
        q = q.inverse()
        data = _normal_form(p, case, q)
    if data is None:
        return None
    return _from_table(case, p, q, data)


def _candidates(p: ParameterArray) -> list[tuple]:
    """The (case, base, field, lift) tuples classify tries, in order.  At
    d >= 3, the one that the root q of q^2 - beta q + 1 picks: case I in the
    quadratic extension the roots need (lift embeds p's field there), II
    (IV in characteristic 2) for q = 1, III for q = -1, and I for any other
    q.  Below d = 3 every scalar is a base and the cases overlap: II then
    III in odd characteristic and over Q, and in characteristic 2 case I at
    `first_case1_base` (none over GF(2))."""
    F = p.field
    one = F.one()
    if p.d >= 3:
        ext, lift, (q, _) = splitting_field(F, one - beta_plus_one(p), one)
        if ext is not F:
            return [("I", q, ext, lift)]
        if q == one:
            return [("IV" if F.characteristic() == 2 else "II", one, F, _identity)]
        return [("III" if q == -one else "I", q, F, _identity)]
    if F.characteristic() != 2:
        return [("II", one, F, _identity), ("III", -one, F, _identity)]
    q = first_case1_base(F)
    return [] if q is None else [("I", q, F, _identity)]


def classify(p: ParameterArray) -> ClassifierWitness:
    """Classify an array; returns the witness of the first candidate of
    `_candidates` that fits and regenerates it over the witness field.

    A request for a field extension, from the base quadratic or from a
    family's second one, is deferred to the next candidate.  When none
    fits, the request is raised as NeedsFieldExtension if the array
    validates (over the rationals, or past the supported extension degree,
    no witness field is built to regenerate in); otherwise, and at d = 0,
    NoCaseMatched.
    """
    if p.d < 1:
        raise NoCaseMatched("classification needs d >= 1")
    deferred = None
    try:
        candidates = _candidates(p)
    except NeedsFieldExtension as e:
        candidates, deferred = [], e
    for case, q, field, lift in candidates:
        try:
            w = _fit_case(p if lift is _identity else embed_array(p, field, lift),
                          case, q)
        except NeedsFieldExtension as e:
            deferred, w = deferred or e, None
        if w is not None:
            if lift is _identity:
                return w
            # fitted and certified on p embedded once; the witness's embed
            # then maps p's field, not the candidate's, into the witness field
            outer = w.embed
            return replace(w, embed=lift if outer is _identity
                           else lambda x: outer(lift(x)))
    if deferred is not None and validate(p).ok():
        raise deferred
    raise NoCaseMatched(f"no eigenvalue closed form fits this array over {p.field}")
