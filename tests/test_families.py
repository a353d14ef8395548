"""Named families: builders, preconditions, series displays, sampling."""

import random

import pytest

from leonard import (
    CLOSED_FORM_FAMILIES,
    FAMILY_PARAMS,
    ORDINARY_FAMILIES,
    Q_FAMILIES,
    CharacteristicMismatch,
    DenominatorPoleBeforeTermination,
    FamilyParams,
    FieldElement,
    HypergeomSpec,
    PreconditionViolated,
    SeriesDoesNotTerminate,
    characteristic_admissible,
    closed_form_spec,
    d4_apply,
    extension_field,
    family_base,
    family_param_names,
    generate,
    hypergeom_sum,
    list_families,
    prime_field,
    sample_params,
    validate,
    verify_closed_form,
)
from leonard.errors import BadInput
from leonard.families import _QPowers
from leonard.fields import _find_irreducible
from conftest import Q


ALL = ["q-racah", "q-hahn", "dual-q-hahn", "quantum-q-krawtchouk",
       "q-krawtchouk", "affine-q-krawtchouk", "dual-q-krawtchouk",
       "racah", "hahn", "dual-hahn", "krawtchouk", "bannai-ito", "orphan"]


def vals(field, **kw):
    return {name: field.parse(text) for name, text in kw.items()}


def ones(family):
    """Every parameter of the family set to 1 over Q."""
    return dict.fromkeys(family_param_names(family), Q.one())


def test_registry_complete():
    assert list_families() == ALL
    for fam in ALL:
        names = family_param_names(fam)
        assert "theta0" in names and "thetastar0" in names
    assert len(CLOSED_FORM_FAMILIES) == 11
    assert "bannai-ito" not in CLOSED_FORM_FAMILIES
    assert "orphan" not in CLOSED_FORM_FAMILIES
    with pytest.raises(ValueError):
        family_param_names("wilson")


def test_family_lists_are_pinned():
    # views of the family table; sample_params draws in the FAMILY_PARAMS order
    assert list(FAMILY_PARAMS.items()) == [
        ("q-racah", ("q", "h", "hstar", "s", "sstar", "r1", "r2")),
        ("q-hahn", ("q", "h", "hstar", "sstar", "r")),
        ("dual-q-hahn", ("q", "h", "hstar", "s", "r")),
        ("quantum-q-krawtchouk", ("q", "hstar", "s", "r")),
        ("q-krawtchouk", ("q", "h", "hstar", "sstar")),
        ("affine-q-krawtchouk", ("q", "h", "hstar", "r")),
        ("dual-q-krawtchouk", ("q", "h", "hstar", "s")),
        ("racah", ("h", "hstar", "s", "sstar", "r1", "r2")),
        ("hahn", ("hstar", "s", "sstar", "r")),
        ("dual-hahn", ("h", "s", "sstar", "r")),
        ("krawtchouk", ("r", "s", "sstar")),
        ("bannai-ito", ("h", "hstar", "s", "sstar", "r1", "r2")),
        ("orphan", ("h", "hstar", "s", "sstar", "r")),
    ]
    assert Q_FAMILIES == ("q-racah", "q-hahn", "dual-q-hahn",
                          "quantum-q-krawtchouk", "q-krawtchouk",
                          "affine-q-krawtchouk", "dual-q-krawtchouk")
    assert ORDINARY_FAMILIES == ("racah", "hahn", "dual-hahn", "krawtchouk")
    assert CLOSED_FORM_FAMILIES == Q_FAMILIES + ORDINARY_FAMILIES
    assert list_families() == ALL


def test_krawtchouk_matches_fixture(kraw2, kraw3):
    fp2 = FamilyParams("krawtchouk", 2, vals(Q, s="1", sstar="1", r="2",
                                             theta0="0", thetastar0="0"))
    assert generate(fp2, Q) == kraw2
    fp3 = FamilyParams("krawtchouk", 3, vals(Q, s="1", sstar="1", r="2",
                                             theta0="0", thetastar0="0"))
    assert generate(fp3, Q) == kraw3


def test_generated_families_validate_over_q():
    rng = random.Random(101)
    for fam in ALL:
        if fam == "orphan":
            continue
        fp = sample_params(fam, 3, Q, rng)
        assert fp is not None, fam
        p = generate(fp, Q)
        assert validate(p).ok(), fam


def test_orphan_only_in_char_two(gf4, orphan3):
    assert validate(orphan3).ok()
    assert characteristic_admissible("orphan", 3, gf4)
    assert not characteristic_admissible("orphan", 3, Q)
    assert not characteristic_admissible("orphan", 4, gf4)
    with pytest.raises(CharacteristicMismatch):
        generate(FamilyParams("orphan", 3, vals(
            Q, h="1", hstar="1", s="2", sstar="2", r="5",
            theta0="0", thetastar0="0")), Q)


def test_characteristic_gates():
    f3 = prime_field(3)
    assert not characteristic_admissible("racah", 3, f3)
    assert characteristic_admissible("racah", 2, prime_field(5))
    assert not characteristic_admissible("bannai-ito", 3, prime_field(2))
    assert characteristic_admissible("bannai-ito", 5, prime_field(5))
    # q needs multiplicative order above d, so GF(4) caps d at 2 for q-families
    gf4 = pytest.importorskip("leonard").extension_field(2, 2, (1, 1, 1))
    assert not characteristic_admissible("q-racah", 3, gf4)
    # GF(3)* = {1, -1} and q = +-1 is never a base, so no q-family fits
    for family in Q_FAMILIES:
        assert not characteristic_admissible(family, 1, f3), family


def test_precondition_messages():
    with pytest.raises(PreconditionViolated):
        generate(FamilyParams("krawtchouk", 2, vals(
            Q, s="1", sstar="1", r="0", theta0="0", thetastar0="0")), Q)


def test_krawtchouk_r_equals_s_sstar_rejected():
    # r = s sstar collapses every phi entry
    with pytest.raises(PreconditionViolated):
        generate(FamilyParams("krawtchouk", 2, vals(
            Q, s="1", sstar="2", r="2", theta0="0", thetastar0="0")), Q)


def test_q_racah_product_constraint():
    bad = vals(Q, q="2", h="1", hstar="1", s="1", sstar="1", r1="3", r2="5",
               theta0="0", thetastar0="0")
    with pytest.raises(PreconditionViolated):
        generate(FamilyParams("q-racah", 3, bad), Q)


def test_family_base_values(qrac3):
    fp = FamilyParams("q-racah", 3, vals(
        Q, q="2", h="1", hstar="1", s="1", sstar="1", r1="3", r2="16/3",
        theta0="0", thetastar0="0"))
    assert family_base(fp, Q) == Q.from_int(2)
    bi = FamilyParams("bannai-ito", 3, ones("bannai-ito"))
    assert family_base(bi, Q) == Q.from_int(-1)
    kr = FamilyParams("krawtchouk", 3, ones("krawtchouk"))
    assert family_base(kr, Q) == Q.one()


def test_hypergeom_chu_vandermonde():
    # 2F1(-2, -1; -3; 1) = (c - b)_2 / (c)_2 = 1/3
    spec = HypergeomSpec("ordinary",
                         (Q.from_int(-2), Q.from_int(-1)),
                         (Q.from_int(-3),), Q.one())
    assert hypergeom_sum(spec, 10) == Q.parse("1/3")


def test_hypergeom_krawtchouk_entry():
    # 2F1(-1, -1; -2; 1/2) = 1 - 1/4 = 3/4, the kraw2 table entry
    spec = HypergeomSpec("ordinary", (Q.from_int(-1), Q.from_int(-1)),
                         (Q.from_int(-2),), Q.parse("1/2"))
    assert hypergeom_sum(spec, 10) == Q.parse("3/4")


def test_hypergeom_termination_precedes_pole():
    # numerator dies at n = 2 before the denominator pole at n = 3,
    # so the sum is 1 + (-1)(1)/(-2) = 3/2
    spec = HypergeomSpec("ordinary", (Q.from_int(-1), Q.one()),
                         (Q.from_int(-2),), Q.one())
    assert hypergeom_sum(spec, 10) == Q.parse("3/2")


def test_hypergeom_pole_before_termination():
    spec = HypergeomSpec("ordinary", (Q.from_int(-5), Q.one()),
                         (Q.from_int(-2),), Q.one())
    with pytest.raises(DenominatorPoleBeforeTermination):
        hypergeom_sum(spec, 10)


def test_hypergeom_never_terminates():
    spec = HypergeomSpec("ordinary", (Q.one(), Q.one()), (), Q.one())
    with pytest.raises(SeriesDoesNotTerminate):
        hypergeom_sum(spec, 12)


def test_basic_series_uses_q_factorials():
    # 1phi0(q^-1; -; q, z) = 1 + (1 - q^-1) z / (1 - q)
    q = Q.from_int(2)
    spec = HypergeomSpec("basic", (Q.parse("1/2"),), (), Q.from_int(3), q=q)
    assert hypergeom_sum(spec, 10) == Q.parse("1") + Q.parse("-3/2")


def test_closed_form_all_display_families_d2():
    rng = random.Random(77)
    for fam in CLOSED_FORM_FAMILIES:
        fp = sample_params(fam, 2, Q, rng)
        assert fp is not None, fam
        p = generate(fp, Q)
        rep = verify_closed_form(p, fp)
        assert rep.ok(), (fam, rep.failures)


def test_closed_form_spot_value(kraw2):
    fp = FamilyParams("krawtchouk", 2, vals(Q, s="1", sstar="1", r="2",
                                            theta0="0", thetastar0="0"))
    spec = closed_form_spec(fp, 1, 1)
    assert spec.kind == "ordinary"
    assert hypergeom_sum(spec, 5) == Q.parse("3/4")
    assert verify_closed_form(kraw2, fp).ok()


def test_closed_form_rejects_non_display_family():
    fp = FamilyParams("bannai-ito", 3, ones("bannai-ito"))
    with pytest.raises(ValueError):
        closed_form_spec(fp, 0, 0)


def test_sample_params_deterministic():
    a = sample_params("racah", 3, Q, random.Random(5))
    b = sample_params("racah", 3, Q, random.Random(5))
    assert a == b


def test_sample_params_none_when_inadmissible():
    f3 = prime_field(3)
    assert sample_params("racah", 3, f3, random.Random(1)) is None
    assert sample_params("orphan", 3, Q, random.Random(1)) is None
    for family in Q_FAMILIES:
        assert sample_params(family, 1, f3, random.Random(1)) is None, family


def test_sample_params_finite_fields(gf4, gf7, gf11):
    rng = random.Random(9)
    for fam, field, d in (("q-racah", gf11, 3), ("orphan", gf4, 3),
                          ("hahn", gf11, 3), ("bannai-ito", gf7, 3)):
        fp = sample_params(fam, d, field, rng)
        assert fp is not None, fam
        p = generate(fp, field)
        assert validate(p).ok(), fam


def test_sample_params_exhausted_constraints():
    # at d = 3 over GF(7) the q-racah inequalities use up every unit,
    # so sampling honestly reports impossibility
    assert sample_params("q-racah", 3, prime_field(7), random.Random(3)) is None


def test_generate_rejects_wrong_value_set(kraw2):
    with pytest.raises(ValueError):
        generate(FamilyParams("krawtchouk", 2, vals(
            Q, s="1", r="2", theta0="0", thetastar0="0")), Q)
    with pytest.raises(ValueError):
        generate(FamilyParams("krawtchouk", 0, vals(
            Q, s="1", sstar="1", r="2", theta0="0", thetastar0="0")), Q)


def test_library_entry_points_raise_bad_input(kraw2):
    """Malformed input reaching the library without the CLI is a BadInput,
    which is still a ValueError, and not a builtin error."""
    kraw = dict(s="1", sstar="1", r="2", theta0="0", thetastar0="0")
    no_field = {"family": "krawtchouk", "d": 2, "values": kraw}
    for call, message in (
        (lambda: Q.parse("9" * 4301), "at most 4300 digits, got 4301"),
        (lambda: FamilyParams.from_json(no_field), "missing 'field'"),
        (lambda: FamilyParams("krawtchouk", 0, vals(Q, **kraw)),
         "diameter must be at least 1"),
        (lambda: sample_params("nope", 3, Q, random.Random(1)), "unknown family"),
        (lambda: d4_apply(kraw2, ["up"]), "unknown generator 'up'"),
    ):
        with pytest.raises(BadInput, match=message) as caught:
            call()
        assert isinstance(caught.value, ValueError)


def test_family_params_from_json_refuses_wrong_types():
    """A `values` that is not an object of strings, a `family` that is not a
    string and a document that is not an object are each a named BadInput,
    not an AttributeError or TypeError."""
    kraw = dict(s="1", sstar="1", r="2", theta0="0", thetastar0="0")
    good = {"family": "krawtchouk", "d": 2, "field": Q.spec.to_json(), "values": kraw}
    assert FamilyParams.from_json(good).to_json() == good
    for obj in (5, "field", ["field"]):
        with pytest.raises(BadInput, match="parameters must be a JSON object"):
            FamilyParams.from_json(obj)
    for key, value, message in (
        ("values", list(kraw), "values must be an object of strings"),
        ("values", "s=1", "values must be an object of strings"),
        ("values", dict(kraw, s=1), "values must be an object of strings"),
        ("family", ["krawtchouk"], r"family must be a string, got \['krawtchouk'\]"),
    ):
        with pytest.raises(BadInput, match=message):
            FamilyParams.from_json(dict(good, **{key: value}))


def test_qpowers_inverts_q_once(monkeypatch):
    d = 6
    for F in (Q, prime_field(101), extension_field(3, 8, _find_irreducible(3, 8))):
        q = F.from_int(2) + (F.generator() if F.spec.kind == "extension" else 0)
        want = {n: q**n for n in range(-2 * d, 2 * d + 1)}
        calls = []
        inverse = FieldElement.inverse
        monkeypatch.setattr(FieldElement, "inverse",
                            lambda self: calls.append(self) or inverse(self))
        P = _QPowers(q)
        # every power twice, out of order, the negative ones first
        order = list(range(-2 * d, 2 * d + 1))
        random.Random(F.spec_hash).shuffle(order)
        order.sort(key=lambda n: n >= 0)
        got = {n: P(n) for n in order + order}
        monkeypatch.undo()
        assert calls == [q], F
        assert got == want, F
