"""Closed-form fits, case dispatch, and certified scalar recovery."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import random

import pytest

from leonard import (
    FamilyParams,
    NeedsFieldExtension,
    NoCaseMatched,
    classify,
    embed_array,
    enumerate_arrays,
    extension_field,
    fit_closed_form_theta,
    generate,
    prime_field,
    sample_params,
    validate,
)
from leonard import fields, parray
from leonard.cli import dump_json
from leonard.classify import _normal_form
from leonard.families import Q_FAMILIES
from leonard.fields import (TABLE_ORDER_CAP, ExtensionField, _find_irreducible,
                            splitting_field)
from leonard.parray import array_from_json, base_candidates
from conftest import Q, qarr

# the module: the package's name `classify` is the function
classify_module = importlib.import_module("leonard.classify")


def test_fit_case1_geometric():
    # theta_i = 3 + 2^i fits eta + mu q^i + h q^-i with (3, 1, 0)
    theta = [Q.from_int(3 + 2**i) for i in range(4)]
    fit = fit_closed_form_theta(theta, Q.from_int(2), "I")
    assert fit is not None
    eta, mu, h = fit
    assert (Q.format(eta), Q.format(mu), Q.format(h)) == ("3", "1", "0")


def test_fit_case1_rejects_wrong_base():
    theta = [Q.from_int(3 + 2**i) for i in range(4)]
    assert fit_closed_form_theta(theta, Q.from_int(3), "I") is None


def test_fit_case2_quadratic():
    # theta_i = i(i + 2) = (mu + h) i + h i^2 with mu = h = 1
    theta = [Q.from_int(i * (i + 2)) for i in range(5)]
    fit = fit_closed_form_theta(theta, Q.one(), "II")
    assert fit is not None
    eta, mu, h = fit
    assert (Q.format(eta), Q.format(mu), Q.format(h)) == ("0", "1", "1")


def test_fit_case3_alternating():
    # theta_i = (-1)^i (1 + 2i): eta = 0, mu = 1, h = 1
    theta = [Q.from_int((-1) ** i * (1 + 2 * i)) for i in range(4)]
    fit = fit_closed_form_theta(theta, Q.from_int(-1), "III")
    assert fit is not None
    eta, mu, h = fit
    assert (Q.format(eta), Q.format(mu), Q.format(h)) == ("0", "1", "1")


def test_fix_d1_classifies_as_krawtchouk(fix_d1):
    w = classify(fix_d1)
    assert w.case == "II"
    assert w.family == "krawtchouk"
    v = w.params.values
    assert Q.format(v["r"]) == "-1"
    assert w.field is fix_d1.field


def test_kraw3_recovers_r(kraw3):
    w = classify(kraw3)
    assert (w.case, w.family) == ("II", "krawtchouk")
    v = {k: Q.format(x) for k, x in w.params.values.items()}
    assert v["r"] == "2" and v["s"] == "1" and v["sstar"] == "1"
    assert v["theta0"] == "0" and v["thetastar0"] == "0"


def test_qrac3_recovers_scalars(qrac3):
    w = classify(qrac3)
    assert (w.case, w.family) == ("I", "q-racah")
    v = {k: Q.format(x) for k, x in w.params.values.items()}
    assert v["q"] == "2" and v["h"] == "1" and v["s"] == "1"
    assert {v["r1"], v["r2"]} == {"3", "16/3"}


def test_orphan_case_iv(orphan3):
    w = classify(orphan3)
    assert (w.case, w.family) == ("IV", "orphan")
    F = orphan3.field
    v = w.params.values
    assert v["h"] == F.one() and v["s"] == F.generator()
    assert v["r"] == F.generator()


def test_witness_regenerates_source(qrac3, orphan3):
    for p in (qrac3, orphan3):
        w = classify(p)
        again = generate(w.params, w.field)
        assert again == embed_array(p, w.field, w.embed)


def test_round_trip_families_d3_over_q():
    rng = random.Random(42)
    for fam in ("racah", "hahn", "dual-hahn", "krawtchouk", "bannai-ito"):
        fp = sample_params(fam, 3, Q, rng)
        assert fp is not None, fam
        p = generate(fp, Q)
        w = classify(p)
        assert w.family == fam, (fam, w.family)


def test_round_trip_q_families_d3_over_q():
    rng = random.Random(43)
    for fam in ("q-racah", "q-hahn", "dual-q-hahn", "quantum-q-krawtchouk",
                "q-krawtchouk", "affine-q-krawtchouk", "dual-q-krawtchouk"):
        fp = sample_params(fam, 3, Q, rng)
        assert fp is not None, fam
        p = generate(fp, Q)
        w = classify(p)
        assert w.family == fam, (fam, w.family)
        assert w.case == "I"


def test_round_trip_over_gf11():
    f11 = prime_field(11)
    rng = random.Random(44)
    for fam in ("racah", "hahn", "krawtchouk", "q-racah", "bannai-ito"):
        fp = sample_params(fam, 3, f11, rng)
        assert fp is not None, fam
        p = generate(fp, f11)
        w = classify(p)
        assert w.family == fam, (fam, w.family)


def test_d1_always_classifies(gf4):
    # char 0 lands in the quadratic branch, char 2 in the geometric one
    p = qarr([0, 5], [0, 7], [-33], [2])
    w = classify(p)
    assert w.case == "II" and w.family == "krawtchouk"
    for p4 in enumerate_arrays(gf4, 1):
        w4 = classify(p4)
        assert w4.case == "I"
        assert w4.family == "affine-q-krawtchouk"
        break


def test_d2_over_q_may_need_extension():
    # a diameter-2 array whose racah parameters live in a quadratic field
    rng = random.Random(45)
    fp = sample_params("q-racah", 2, Q, rng)
    p = generate(fp, Q)
    try:
        w = classify(p)
        assert w.case in ("I", "II", "III")
    except NeedsFieldExtension as e:
        assert "extension" in str(e) or e.b is not None


def test_extension_request_only_for_a_valid_array():
    """Over Q classify cannot regenerate in the quadratic field a witness
    needs, so it certifies the array itself: a Racah array whose r1 and r2
    need the field is a request for it, and a copy that fails validate is
    NoCaseMatched.  So is an array that fails validate with a base q outside
    Q (q^2 - 3q + 1 = 0)."""
    p = qarr([0, 3, 8, 15], [0, 3, 8, 15], [-44, "-284/3", -104], [1, "16/3", 1])
    assert validate(p).ok()
    with pytest.raises(NeedsFieldExtension):
        classify(p)
    bad = dataclasses.replace(p, phi=p.phi[:2] + (Q.from_int(2),))
    irrational_base = qarr([0, 1, 2, 4], [0, 1, 2, 4], [1, 1, 1], [1, 1, 1])
    for a in (bad, irrational_base):
        assert not validate(a).ok()
        with pytest.raises(NoCaseMatched):
            classify(a)


def test_d2_finite_builds_extension():
    f5 = prime_field(5)
    hits = 0
    for p in enumerate_arrays(f5, 2):
        w = classify(p)
        assert w.case in ("I", "II", "III")
        if w.field is not p.field:
            assert w.field.order() == 25
            hits += 1
        if hits >= 3:
            break
    assert hits >= 3


def test_every_gf4_d3_array_is_orphan(gf4):
    count = 0
    for p in enumerate_arrays(gf4, 3):
        w = classify(p)
        assert (w.case, w.family) == ("IV", "orphan")
        count += 1
    assert count == 576


def test_invalid_array_is_rejected():
    p = qarr([0, 1, 0], [0, 1, 2], [1, 1], [1, 1])
    with pytest.raises(NoCaseMatched):
        classify(p)


@pytest.mark.parametrize("field", [
    prime_field(7), prime_field(11), prime_field(13),
    extension_field(2, 3, _find_irreducible(2, 3)),
    extension_field(3, 2, _find_irreducible(3, 2)),
], ids=str)
def test_case1_form_fits_at_q_exactly_when_at_1_over_q(field):
    """The roots of q^2 - beta q + 1 are q and 1/q, and the case-I form
    fits at one exactly when it fits at the other (mu and h swap, tau gains
    q^(d+1)), so classify tries one root.  Checked on valid arrays, on
    copies with one entry bumped by 1 and on copies with theta* redrawn."""
    rng = random.Random(str(field))
    one = field.one()

    # q-family arrays, whose q lies in the field, and every 200th
    # enumerated array, some of whose q need the quadratic extension
    valid = [generate(fp, field) for fp in (
        sample_params(family, d, field, rng)
        for family in Q_FAMILIES for d in (3, 4, 5)) if fp is not None]
    for d in (3, 4):
        valid += itertools.islice(enumerate_arrays(field, d), 0, 4000, 200)
    arrays = []
    for p in valid:
        name = rng.choice(("theta", "theta_star", "varphi", "phi"))
        seq = list(getattr(p, name))
        seq[rng.randrange(len(seq))] += one
        theta_star = tuple(field.random_element(rng) for _ in range(p.d + 1))
        arrays += [p, dataclasses.replace(p, theta_star=theta_star)]
        if name != "theta" or len(set(seq)) == len(seq):  # theta injective
            arrays.append(dataclasses.replace(p, **{name: tuple(seq)}))
    fits = misses = 0
    for p in arrays:
        bc = base_candidates(p)
        if bc.kind == "in_field":
            q = bc.roots[0]
        else:
            c0, c1, _ = bc.quadratic
            ext, lift, (q, _) = splitting_field(field, c1, c0)
            p = embed_array(p, ext, lift)
        if q == q.inverse():
            continue
        at_q = _normal_form(p, "I", q) is not None
        assert at_q == (_normal_form(p, "I", q.inverse()) is not None), p
        fits += at_q
        misses += not at_q
    assert fits >= 10 and misses >= 10


# quadratic_roots calls per classify: the base quadratic q^2 - beta q + 1
# once, by splitting_field, and the family's (r1, r2) once.  Where the base
# needed an extension, base_candidates solved the base quadratic first and
# splitting_field solved it again, 3 calls; qrac3's base lies in Q.
@pytest.mark.parametrize("name", ["ext3_4.json", "ext5_4.json", "ext7_2.json",
                                  "ext5_3.json", "ext1000003_2.json", "qrac3.json"])
def test_classify_solves_the_base_quadratic_once(name, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path) as fh:
        p = array_from_json(json.load(fh))
    calls = []
    roots = fields.quadratic_roots

    def counted(*args):
        calls.append(args)
        return roots(*args)

    for module in (fields, parray):
        monkeypatch.setattr(module, "quadratic_roots", counted)
    classify(p)
    assert len(calls) == 2, calls


# Payload products and inverses in fields above TABLE_ORDER_CAP during one
# warm-cache classify of each fixture.  The witness field is GF(3^8),
# GF(5^8) and GF(1000003^4); GF(1000003^2) is above the cap too.  With a
# Tonelli-Shanks run in the witness field for each split, two powerings
# per square root, a fresh inverse of 2 per quadratic and quotients in
# PA5 and the case-I fit, the counts were 402/24, 459/24 and 1,189/27.
WITNESS_FIELD_OPS = {"ext3_4.json": (279, 16), "ext5_4.json": (288, 16),
                     "ext1000003_2.json": (520, 17)}


@pytest.mark.parametrize("name", list(WITNESS_FIELD_OPS))
def test_classify_operation_count_above_the_table_cap(name, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path) as fh:
        p = array_from_json(json.load(fh))
    want = classify(p)  # fills the per-field caches
    counts = {"_mul": 0, "_inv": 0}

    def counted(op):
        method = getattr(ExtensionField, op)

        def wrapper(self, *args):
            if self.order() > TABLE_ORDER_CAP:
                counts[op] += 1
            return method(self, *args)
        return wrapper

    for op in counts:
        monkeypatch.setattr(ExtensionField, op, counted(op))
    got = classify(p)
    assert got.params == want.params and got.field.order() > TABLE_ORDER_CAP
    products, inverses = WITNESS_FIELD_OPS[name]
    assert counts["_mul"] <= products and counts["_inv"] <= inverses, counts


@pytest.mark.parametrize("name", ["ext3_4.json", "ext5_4.json", "ext7_2.json",
                                  "ext5_3.json", "ext1000003_2.json"])
def test_classify_embeds_the_array_once(name, monkeypatch):
    """Each fixture's base q needs a quadratic extension, so classify lifts
    the array there by the map that splitting_field returns.  It fits and
    certifies the lifted array, so the base lift runs once per entry of the
    array, 4d + 2 calls; certifying against the source array lifted a
    second time took twice that.  The witness's embed still maps the
    source field into the witness field."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path) as fh:
        p = array_from_json(json.load(fh))
    calls = []
    split = classify_module.splitting_field

    def counted_split(field, b, c):
        ext, lift, roots = split(field, b, c)
        if field is not p.field:
            return ext, lift, roots
        assert ext is not field

        def counted(x):
            calls.append(x)
            return lift(x)
        return ext, counted, roots

    monkeypatch.setattr(classify_module, "splitting_field", counted_split)
    w = classify(p)
    assert len(calls) == 4 * p.d + 2
    assert w.case == "I" and w.field is not p.field
    assert embed_array(p, w.field, w.embed) == generate(w.params, w.field)


def test_a_broken_pa5_fails_in_the_closed_form_branch():
    """A GF(101) dual-q-Krawtchouk array at d = 4 with 1 added to theta_4
    breaks PA5: the base quadratic still splits, and no closed form fits
    its one candidate."""
    F = prime_field(101)
    values = {k: F.from_int(v) for k, v in
              dict(q=3, h=1, hstar=1, s=2, theta0=0, thetastar0=0).items()}
    p = generate(FamilyParams("dual-q-krawtchouk", 4, values), F)
    broken = dataclasses.replace(p, theta=p.theta[:4] + (p.theta[4] + 1,))
    assert not validate(broken).ok()
    with pytest.raises(NoCaseMatched) as e:
        classify(broken)
    assert str(e.value) == "no eigenvalue closed form fits this array over GF(101)"


def test_characteristic_2_below_d3_requests_the_extension_it_needs():
    """Below d = 3 in characteristic 2 the one candidate is case I at
    `first_case1_base`; its r1 and r2 can need GF(2^10), past the supported
    degree.  Over the first 2,000 arrays of GF(2^5) at d = 2 (all valid),
    1,061 are such requests and none is NoCaseMatched, and the 939
    witnesses print as before the candidate list: their digest was taken
    from the JSON `leonard classify` printed for them then."""
    F = extension_field(2, 5, _find_irreducible(2, 5))
    digest, witnesses, requests = hashlib.sha256(), 0, 0
    for p in itertools.islice(enumerate_arrays(F, 2), 2000):
        try:
            w = classify(p)
        except NeedsFieldExtension as e:
            assert "needs degree 10 over GF(2), past the supported maximum" in str(e)
            requests += 1
            continue
        witnesses += 1
        digest.update(dump_json({"case": w.case, "family": w.family,
                                 "parameters": w.params.to_json(),
                                 "field_of_witness": w.field.spec.to_json()}).encode())
    assert (witnesses, requests) == (939, 1061)
    assert digest.hexdigest() == (
        "dbaac34ba09874c24724b2dd1239c80914a14b88aabc3054e7a9c44819b0b608")


def test_candidates_below_d3():
    """II then III in odd characteristic and over Q, case I in
    characteristic 2, and nothing over GF(2), whose only scalars are 0, 1."""
    candidates, identity = classify_module._candidates, fields._identity
    gf2, gf4, gf7 = prime_field(2), extension_field(2, 2, (1, 1, 1)), prime_field(7)
    for p in (qarr([0, 1, 2], [0, 1, 2], [1, 1], [1, 1]), next(enumerate_arrays(gf7, 2))):
        one = p.field.one()
        assert candidates(p) == [("II", one, p.field, identity),
                                 ("III", -one, p.field, identity)]
    p = next(enumerate_arrays(gf4, 2))
    assert candidates(p) == [("I", parray.first_case1_base(gf4), gf4, identity)]
    zero, one = gf2.zero(), gf2.one()
    assert candidates(parray.make_array(gf2, [zero, one], [zero, one], [one], [one])) == []
