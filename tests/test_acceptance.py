"""Acceptance battery. Each criterion prints one pass/fail line with its
runtime and enforces an explicit wall-clock bound."""

import random
import sys
import time

import pytest

from leonard import (
    CLOSED_FORM_FAMILIES,
    Analysis,
    characteristic_admissible,
    classify,
    complete_from_theta,
    corresponding_polys,
    d4_apply,
    embed_array,
    enumerate_arrays,
    extension_field,
    generate,
    list_families,
    ortho_data,
    prime_field,
    rational_field,
    recurrence_coeffs,
    s_matrix,
    sample_params,
    validate,
    verify_closed_form,
)
from leonard.cli import _scoreboard
from leonard.splitmat import build
from conftest import horner_table

Q = rational_field()
GF4 = extension_field(2, 2, (1, 1, 1))
GF5 = prime_field(5)
GF7 = prime_field(7)
GF11 = prime_field(11)


class Criterion:
    """Times a block and emits exactly one line on the real stdout."""

    def __init__(self, n, label, bound_seconds):
        self.n = n
        self.label = label
        self.bound = bound_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "pass" if exc_type is None and elapsed < self.bound else "fail"
        sys.__stdout__.write(
            f"criterion {self.n} ({self.label}): {status} "
            f"[{elapsed:.2f}s of {self.bound:.0f}s]\n")
        sys.__stdout__.flush()
        if exc_type is None and elapsed >= self.bound:
            raise AssertionError(
                f"criterion {self.n} exceeded {self.bound}s ({elapsed:.2f}s)")
        return False


def fmt_all(field, xs):
    return [field.format(x) for x in xs]


def scoreboard_clean(p):
    lines, ok = _scoreboard(p)
    assert ok, lines
    assert not any(": fail" in line for line in lines)
    return lines


def test_criterion_1_smallest_fixture():
    with Criterion(1, "d=1 fixture exact values", 1.0):
        p = complete_from_theta(Q, [Q.from_int(0), Q.from_int(1)],
                                [Q.from_int(0), Q.from_int(1)], Q.from_int(2))
        assert p is not None and validate(p).ok()
        assert fmt_all(Q, p.varphi) == ["1"] and fmt_all(Q, p.phi) == ["2"]

        data = ortho_data(Analysis(p))
        assert fmt_all(Q, data.k) == ["1", "-1/2"]
        assert Q.format(data.nu) == "1/2"

        co = recurrence_coeffs(Analysis(p))
        assert fmt_all(Q, co.b) == ["1", "0"]
        assert fmt_all(Q, co.c) == ["0", "-2"]
        assert fmt_all(Q, co.a) == ["-1", "2"]

        f = horner_table(p).f
        assert fmt_all(Q, f[1].coeffs) == ["1", "1"]  # 1 + lambda
        value = f[1](p.theta[1])
        assert value == Q.from_int(2)
        assert value == p.phi[0] / p.varphi[0]
        assert corresponding_polys(Analysis(p)).P.rows[1][1] == Q.from_int(2)

        scoreboard_clean(p)


def test_criterion_2_family_grid():
    fields = (Q, GF7, GF11, GF4)
    diameters = (1, 2, 3, 5)
    with Criterion(2, "13 families x 20 draws, full scoreboard", 120.0):
        for family in list_families():
            draws = 0
            # single-combination families (orphan) need one draw per round
            for round_no in range(24):
                for field in fields:
                    for d in diameters:
                        if draws >= 20:
                            break
                        if not characteristic_admissible(family, d, field):
                            continue
                        seed = f"{family}|{field.spec.to_json()}|{d}|{round_no}"
                        fp = sample_params(family, d, field,
                                           random.Random(seed))
                        if fp is None:
                            continue
                        p = generate(fp, field)
                        assert validate(p).ok(), (family, field, d)
                        scoreboard_clean(p)
                        draws += 1
            assert draws >= 20, (family, draws)


def test_criterion_3_series_displays():
    with Criterion(3, "closed-form tables match series sums", 60.0):
        assert len(CLOSED_FORM_FAMILIES) == 11
        for family in CLOSED_FORM_FAMILIES:
            for d in (1, 2, 3, 4):
                fp = sample_params(family, d, Q,
                                   random.Random(f"series|{family}|{d}"))
                assert fp is not None, (family, d)
                p = generate(fp, Q)
                rep = verify_closed_form(p, fp)
                assert rep.ok(), (family, d, rep.failures)


def test_criterion_4_exhaustive_classification():
    jobs = ((GF5, 2), (GF5, 3), (GF4, 3))
    with Criterion(4, "exhaustive enumeration fully classified", 300.0):
        for field, d in jobs:
            count = 0
            for p in enumerate_arrays(field, d, budget=100_000):
                w = classify(p)  # NoCaseMatched would propagate and fail
                assert w.family in list_families()
                regenerated = generate(w.params, w.field)
                assert regenerated == embed_array(p, w.field, w.embed)
                assert w.field.order() <= field.order() ** 2
                count += 1
            assert count > 0, (field, d)


def test_criterion_5_orbit_relations():
    with Criterion(5, "dihedral orbit relations on random arrays", 30.0):
        rng = random.Random("orbits")
        fields = (Q, GF7, GF11, GF4)
        produced = 0
        while produced < 100:
            field = fields[rng.randrange(len(fields))]
            d = rng.randrange(1, 5)
            elems = [field.random_element(rng) for _ in range(2 * (d + 1))]
            theta, theta_star = elems[: d + 1], elems[d + 1:]
            if len(set(theta)) != d + 1 or len(set(theta_star)) != d + 1:
                continue
            p = complete_from_theta(field, theta, theta_star,
                                    field.random_element(rng, nonzero=True))
            if p is None:
                continue
            produced += 1

            for g in ("star", "down", "ddown"):
                assert d4_apply(p, [g, g]) == p
            assert d4_apply(p, ["ddown", "star"]) == d4_apply(p, ["star", "down"])
            assert d4_apply(p, ["down", "star"]) == d4_apply(p, ["star", "ddown"])
            assert d4_apply(p, ["down", "ddown"]) == d4_apply(p, ["ddown", "down"])

            words = [[], ["star"], ["down"], ["ddown"], ["down", "ddown"],
                     ["star", "down"], ["star", "ddown"],
                     ["star", "down", "ddown"]]
            for word in words:
                assert validate(d4_apply(p, word)).ok()


def test_criterion_6_transition_closed_form():
    q_families = [f for f in list_families() if f.startswith(("q-", "dual-q",
                                                              "quantum",
                                                              "affine"))]
    with Criterion(6, "transition matrix equals q-binomial form", 10.0):
        assert len(q_families) == 7
        checked = 0
        for family in q_families:
            for d in (3, 4):
                fp = sample_params(family, d, Q,
                                   random.Random(f"smatrix|{family}|{d}"))
                assert fp is not None, (family, d)
                p = generate(fp, Q)
                q = fp.values["q"]
                assert q != Q.one() and q != -Q.one()
                S = s_matrix(p, q)
                alpha = S.rows[0][0].inverse()
                assert build(Analysis(p)).G == S.scale(alpha), (family, d)
                checked += 1
        assert checked == 14


def test_criterion_7_char_two_outlier():
    with Criterion(7, "char-2 d=3 family and empty d=4", 60.0):
        w = GF4.generator()
        one, zero = GF4.one(), GF4.zero()
        fp_vals = {"h": one, "hstar": one, "s": w, "sstar": w, "r": w,
                   "theta0": zero, "thetastar0": zero}
        from leonard import FamilyParams
        p = generate(FamilyParams("orphan", 3, fp_vals), GF4)
        lines = scoreboard_clean(p)
        assert lines[-1] == "transition-matrix: skipped (base ±1)"
        assert sum(1 for ln in lines if ln.endswith("pass")) == 11

        assert list(enumerate_arrays(GF4, 4)) == []
