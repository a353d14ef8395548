"""Constructive classification of parameter arrays.

Given a validated array, fit theta and theta* to one of the four normal forms
of families._FORMS (exponential, quadratic, alternating, or the
characteristic-2 shape at d = 3) and solve varphi_1 for tau, name the family
whose row matches the fitted coordinates, derive its scalars, and certify the
answer by regenerating the array from them.  That regeneration is the only
comparison of the split sequences: in a validated array PA3 and PA4 fix them
from theta, theta* and varphi_1.  Every case is fitted by one function,
`_fit_case`.  At d >= 3 the base q is a root of q^2 - beta q + 1, solved
once by `splitting_field`: q = 1 gives case II (IV in characteristic 2),
q = -1 case III, and any other root case I, in the ground field or in the
quadratic extension the roots need.  When the required scalars live in a
quadratic extension the witness is produced there; over the rationals the
needed extension is reported instead of built, for an array that validates.
An array whose base needs the extension is embedded there once: it is fitted
and certified there, and the witness's map from the array's own field is
composed once, from that embedding and the map into the witness field.
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
                  d: int, values: dict, source: ParameterArray) -> ClassifierWitness:
    """Assemble the witness and certify it by regenerating the array, which
    embed maps into `field`."""
    params = FamilyParams(family=family, d=d, values=values)
    try:
        regenerated = generate(params, field)
    except PreconditionViolated:
        regenerated = None
    if regenerated != embed_array(source, field, embed):
        raise NoCaseMatched(
            f"{family} scalars recovered for case {case} fail to regenerate "
            f"the array")
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


def classify(p: ParameterArray) -> ClassifierWitness:
    """Classify a validated array; returns a witness whose params regenerate
    it over the witness field.

    Raises NeedsFieldExtension when the witness requires a quadratic
    extension that is not built automatically (rational base field, or an
    extension degree beyond the supported bound), and NoCaseMatched when no
    closed form fits (always at d = 0).  With no witness field to regenerate
    in, the array is validated instead, so an array that fails validate gets
    NoCaseMatched.
    """
    try:
        return _classify(p)
    except NeedsFieldExtension:
        if validate(p).ok():
            raise
        raise NoCaseMatched(f"no eigenvalue closed form fits this array over "
                            f"{p.field}") from None


def _classify(p: ParameterArray) -> ClassifierWitness:
    if p.d < 1:
        raise NoCaseMatched("classification needs d >= 1")
    F = p.field
    one = F.one()

    if p.d >= 3:
        ext, lift, roots = splitting_field(F, one - beta_plus_one(p), one)
        q = roots[0]
        if ext is not F:
            # fitted and certified on p embedded once; the witness's embed
            # then maps p's field, not ext, into the witness field
            w = _fit_case(embed_array(p, ext, lift), "I", q)
            if w is not None:
                outer = w.embed
                w = replace(w, embed=lift if outer is _identity
                            else lambda x: outer(lift(x)))
        elif q == one:
            w = _fit_case(p, "IV" if F.characteristic() == 2 else "II", one)
        else:
            w = _fit_case(p, "III" if q == -one else "I", q)
        if w is None:
            raise NoCaseMatched(
                f"no eigenvalue closed form fits this array over {F}")
        return w

    # Below d = 3 the cases overlap, so try them in a fixed order and
    # prefer whichever stays in the ground field; an extension request is
    # only surfaced when nothing else fits.
    deferred = None
    if F.characteristic() != 2:
        for case, base in (("II", one), ("III", -one)):
            try:
                w = _fit_case(p, case, base)
            except NoCaseMatched:
                w = None
            except NeedsFieldExtension as e:
                deferred = deferred or e
                w = None
            if w is not None:
                return w
    q = first_case1_base(F)
    if q is not None:
        try:
            w = _fit_case(p, "I", q)
        except (NoCaseMatched, NeedsFieldExtension):
            w = None
        if w is not None:
            return w
    if deferred is not None:
        raise deferred
    raise NoCaseMatched(f"no eigenvalue closed form fits this array over {F}")
