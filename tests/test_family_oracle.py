"""The thirteen family builders and the series displays, kept as the oracle
for the family table.

`generate` computes every family from the four classification normal forms
(families.FAMILIES).  Each builder below is the hand-written formula that
preceded the table, unchanged, and `oracle_generate` is the `generate` that
called them, with its characteristic check.  The table must give an equal
array, or raise the same exception type with the same message, on sampled
parameters and on unconstrained random values that trip the preconditions,
and for the orphan on every scalar tuple over GF(4) at d = 3.

`oracle_sample_params` is the sampler that solved r2 by hand for q-Racah,
Racah and Bannai-Ito, over the `characteristic_admissible` that named the
orphan, both unchanged apart from the names.  `sample_params` reads the
row instead; it must return the same parameters, or None, and leave the
random generator in the same state.

`oracle_closed_form_spec` is the per-family series display that preceded the
table's `series` rows, unchanged.  Both must sum to the same value, or raise
the same exception type, at every (i, j).

`_case3` is the Bannai-Ito classifier that preceded the case-III normal form,
unchanged, over the case-III theta fit it called, and `_case4` the orphan
classifier that preceded the case-IV normal form; both drop only the witness
field that no caller read.  `leonard classify` must print the same witness
with each as without it.

`fit_closed_form_theta_by_solve` is the theta fit that preceded each normal
form's own `fit`, unchanged apart from the name: case I by a 3x3
Gauss-Jordan solve (`_solve`, the `SquareMatrix.solve` it called), cases II
and III by hand.  Both fits must return the same triple, or both None, and
raise the same ValueError.  Case IV never had a theta fit of its own, so
both fits take cases I, II and III only.

`parent_q_fit` is the case-I fit as it was with two inverses, one for mu
and one for h, unchanged apart from the name.  `q_fit` takes one, of
(q - 1)(q - q^-1); both must return the same pair, or both None.

`q_splits`, `ordinary_splits`, `alternating_splits` and `orphan_splits` are
the closed-form split sequences of the four normal forms, unchanged, which
`generate` built arrays from and `classify` compared with before PA3 and PA4
replaced them.  For arbitrary coordinates with theta_0 != theta_d they must
satisfy PA3 and PA4 as the paper states them, and each form's `varphi1` must
give their varphi_1.
"""

import importlib
import itertools
import json
import random
from typing import Optional

import pytest

from leonard import (
    CharacteristicMismatch,
    SingularMatrix,
    SquareMatrix,
    FamilyParams,
    HypergeomSpec,
    IdentityViolated,
    LeonardError,
    PreconditionViolated,
    closed_form_spec,
    extension_field,
    family_base,
    family_param_names,
    generate,
    hypergeom_sum,
    make_array,
    prime_field,
    rational_field,
    sample_params,
    validate,
    validation_lines,
)
from leonard.families import (
    CLOSED_FORM_FAMILIES,
    FAMILIES,
    FAMILY_PARAMS,
    ORDINARY_FAMILIES,
    Q_FAMILIES,
    _FORMS,
    _QPowers,
    _characteristic_allows,
    _random_nonzero,
    _require,
    q_fit,
)
from leonard.classify import ClassifierWitness, _identity, _make_witness
from leonard.cli import main
from leonard.fields import _find_irreducible, splitting_field
from leonard.parray import ParameterArray, beta_plus_one, enumerate_arrays

# the module, which the package's `classify` function shadows
classify_module = importlib.import_module("leonard.classify")


def _build_q_racah(field, d, v):
    q, h, hs, s, ss = v["q"], v["h"], v["hstar"], v["s"], v["sstar"]
    r1, r2 = v["r1"], v["r2"]
    fam = "q-racah"
    for name in ("q", "h", "hstar", "s", "sstar", "r1", "r2"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    _require(r1 * r2 == s * ss * qq(d + 1), fam, "r1 r2 = s s* q^(d+1)")
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
        _require(r1 * qq(i) != 1, fam, f"r1 q^{i} != 1")
        _require(r2 * qq(i) != 1, fam, f"r2 q^{i} != 1")
        _require(ss * qq(i) != r1, fam, f"s* q^{i} / r1 != 1")
        _require(ss * qq(i) != r2, fam, f"s* q^{i} / r2 != 1")
    for i in range(2, 2 * d + 1):
        _require(s * qq(i) != 1, fam, f"s q^{i} != 1")
        _require(ss * qq(i) != 1, fam, f"s* q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * (1 - s * qq(i + 1)) * qq(-i)
             for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * (1 - ss * qq(i + 1)) * qq(-i)
              for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              * (1 - r1 * qq(i)) * (1 - r2 * qq(i))
              for i in range(1, d + 1)]
    phi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           * (r1 - ss * qq(i)) * (r2 - ss * qq(i)) / ss
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_q_hahn(field, d, v):
    q, h, hs, ss, r = v["q"], v["h"], v["hstar"], v["sstar"], v["r"]
    fam = "q-hahn"
    for name in ("q", "h", "hstar", "sstar", "r"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
        _require(r * qq(i) != 1, fam, f"r q^{i} != 1")
        _require(ss * qq(i) != r, fam, f"s* q^{i} / r != 1")
    for i in range(2, 2 * d + 1):
        _require(ss * qq(i) != 1, fam, f"s* q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * (1 - ss * qq(i + 1)) * qq(-i)
              for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              * (1 - r * qq(i)) for i in range(1, d + 1)]
    phi = [-(h * hs) * qq(1 - i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           * (r - ss * qq(i)) for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_dual_q_hahn(field, d, v):
    q, h, hs, s, r = v["q"], v["h"], v["hstar"], v["s"], v["r"]
    fam = "dual-q-hahn"
    for name in ("q", "h", "hstar", "s", "r"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
        _require(r * qq(i) != 1, fam, f"r q^{i} != 1")
        _require(s * qq(i) != r, fam, f"s q^{i} / r != 1")
    for i in range(2, 2 * d + 1):
        _require(s * qq(i) != 1, fam, f"s q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * (1 - s * qq(i + 1)) * qq(-i)
             for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              * (1 - r * qq(i)) for i in range(1, d + 1)]
    phi = [h * hs * qq(d + 2 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           * (s - r * qq(i - d - 1)) for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_quantum_q_krawtchouk(field, d, v):
    q, hs, s, r = v["q"], v["hstar"], v["s"], v["r"]
    fam = "quantum-q-krawtchouk"
    for name in ("q", "hstar", "s", "r"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
        _require(s * qq(i) != r, fam, f"s q^{i} / r != 1")
    theta = [v["theta0"] - s * q * (1 - qq(i)) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    varphi = [-(r * hs) * qq(1 - i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              for i in range(1, d + 1)]
    phi = [hs * qq(d + 2 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           * (s - r * qq(i - d - 1)) for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_q_krawtchouk(field, d, v):
    q, h, hs, ss = v["q"], v["h"], v["hstar"], v["sstar"]
    fam = "q-krawtchouk"
    for name in ("q", "h", "hstar", "sstar"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
    for i in range(2, 2 * d + 1):
        _require(ss * qq(i) != 1, fam, f"s* q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * (1 - ss * qq(i + 1)) * qq(-i)
              for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              for i in range(1, d + 1)]
    phi = [h * hs * ss * q * (1 - qq(i)) * (1 - qq(i - d - 1))
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_affine_q_krawtchouk(field, d, v):
    q, h, hs, r = v["q"], v["h"], v["hstar"], v["r"]
    fam = "affine-q-krawtchouk"
    for name in ("q", "h", "hstar", "r"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
        _require(r * qq(i) != 1, fam, f"r q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              * (1 - r * qq(i)) for i in range(1, d + 1)]
    phi = [-(h * hs * r) * qq(1 - i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_dual_q_krawtchouk(field, d, v):
    q, h, hs, s = v["q"], v["h"], v["hstar"], v["s"]
    fam = "dual-q-krawtchouk"
    for name in ("q", "h", "hstar", "s"):
        _require(bool(v[name]), fam, f"{name} != 0")
    qq = _QPowers(q)
    for i in range(1, d + 1):
        _require(qq(i) != 1, fam, f"q^{i} != 1")
    for i in range(2, 2 * d + 1):
        _require(s * qq(i) != 1, fam, f"s q^{i} != 1")
    theta = [v["theta0"] + h * (1 - qq(i)) * (1 - s * qq(i + 1)) * qq(-i)
             for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * (1 - qq(i)) * qq(-i) for i in range(d + 1)]
    varphi = [h * hs * qq(1 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
              for i in range(1, d + 1)]
    phi = [h * hs * s * qq(d + 2 - 2 * i) * (1 - qq(i)) * (1 - qq(i - d - 1))
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_racah(field, d, v):
    h, hs, s, ss, r1, r2 = (v["h"], v["hstar"], v["s"], v["sstar"],
                            v["r1"], v["r2"])
    fam = "racah"
    N = field.from_int
    _require(bool(h), fam, "h != 0")
    _require(bool(hs), fam, "hstar != 0")
    _require(r1 + r2 == s + ss + N(d + 1), fam, "r1 + r2 = s + s* + d + 1")
    for i in range(1, d + 1):
        _require(r1 != -N(i), fam, f"r1 != -{i}")
        _require(r2 != -N(i), fam, f"r2 != -{i}")
        _require(ss - r1 != -N(i), fam, f"s* - r1 != -{i}")
        _require(ss - r2 != -N(i), fam, f"s* - r2 != -{i}")
    for i in range(2, 2 * d + 1):
        _require(s != -N(i), fam, f"s != -{i}")
        _require(ss != -N(i), fam, f"s* != -{i}")
    theta = [v["theta0"] + h * N(i) * (N(i + 1) + s) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * N(i) * (N(i + 1) + ss) for i in range(d + 1)]
    varphi = [h * hs * N(i) * (N(i) - N(d + 1)) * (N(i) + r1) * (N(i) + r2)
              for i in range(1, d + 1)]
    phi = [h * hs * N(i) * (N(i) - N(d + 1)) * (N(i) + ss - r1) * (N(i) + ss - r2)
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_hahn(field, d, v):
    hs, s, ss, r = v["hstar"], v["s"], v["sstar"], v["r"]
    fam = "hahn"
    N = field.from_int
    _require(bool(hs), fam, "hstar != 0")
    _require(bool(s), fam, "s != 0")
    for i in range(1, d + 1):
        _require(r != -N(i), fam, f"r != -{i}")
        _require(ss - r != -N(i), fam, f"s* - r != -{i}")
    for i in range(2, 2 * d + 1):
        _require(ss != -N(i), fam, f"s* != -{i}")
    theta = [v["theta0"] + s * N(i) for i in range(d + 1)]
    thetas = [v["thetastar0"] + hs * N(i) * (N(i + 1) + ss) for i in range(d + 1)]
    varphi = [hs * s * N(i) * (N(i) - N(d + 1)) * (N(i) + r)
              for i in range(1, d + 1)]
    phi = [-(hs * s) * N(i) * (N(i) - N(d + 1)) * (N(i) + ss - r)
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_dual_hahn(field, d, v):
    h, s, ss, r = v["h"], v["s"], v["sstar"], v["r"]
    fam = "dual-hahn"
    N = field.from_int
    _require(bool(h), fam, "h != 0")
    _require(bool(ss), fam, "sstar != 0")
    for i in range(1, d + 1):
        _require(r != -N(i), fam, f"r != -{i}")
        _require(r - s - N(d + 1) != -N(i), fam, f"r - s - d - 1 != -{i}")
    for i in range(2, 2 * d + 1):
        _require(s != -N(i), fam, f"s != -{i}")
    theta = [v["theta0"] + h * N(i) * (N(i + 1) + s) for i in range(d + 1)]
    thetas = [v["thetastar0"] + ss * N(i) for i in range(d + 1)]
    varphi = [h * ss * N(i) * (N(i) - N(d + 1)) * (N(i) + r)
              for i in range(1, d + 1)]
    phi = [h * ss * N(i) * (N(i) - N(d + 1)) * (N(i) + r - s - N(d + 1))
           for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_krawtchouk(field, d, v):
    r, s, ss = v["r"], v["s"], v["sstar"]
    fam = "krawtchouk"
    N = field.from_int
    _require(bool(r), fam, "r != 0")
    _require(bool(s), fam, "s != 0")
    _require(bool(ss), fam, "sstar != 0")
    _require(r != s * ss, fam, "r != s s*")
    theta = [v["theta0"] + s * N(i) for i in range(d + 1)]
    thetas = [v["thetastar0"] + ss * N(i) for i in range(d + 1)]
    varphi = [r * N(i) * (N(i) - N(d + 1)) for i in range(1, d + 1)]
    phi = [(r - s * ss) * N(i) * (N(i) - N(d + 1)) for i in range(1, d + 1)]
    return theta, thetas, varphi, phi


def _build_bannai_ito(field, d, v):
    h, hs, s, ss, r1, r2 = (v["h"], v["hstar"], v["s"], v["sstar"],
                            v["r1"], v["r2"])
    fam = "bannai-ito"
    N = field.from_int
    _require(bool(h), fam, "h != 0")
    _require(bool(hs), fam, "hstar != 0")
    _require(r1 + r2 == -s - ss + N(d + 1), fam, "r1 + r2 = -s - s* + d + 1")
    for i in range(1, d + 1):
        _require(s != N(2 * i), fam, f"s != {2 * i}")
        _require(ss != N(2 * i), fam, f"s* != {2 * i}")
    if d % 2 == 0:
        for i in range(2, d + 1, 2):
            _require(r1 != -N(i), fam, f"r1 != -{i}")
            _require(N(i) - ss - r1 != 0, fam, f"-s* - r1 != -{i}")
        for i in range(1, d + 1, 2):
            _require(r2 != -N(i), fam, f"r2 != -{i}")
            _require(N(i) - ss - r2 != 0, fam, f"-s* - r2 != -{i}")
    else:
        for i in range(1, d + 1, 2):
            _require(r1 != -N(i), fam, f"r1 != -{i}")
            _require(r2 != -N(i), fam, f"r2 != -{i}")
            _require(N(i) - ss - r1 != 0, fam, f"-s* - r1 != -{i}")
            _require(N(i) - ss - r2 != 0, fam, f"-s* - r2 != -{i}")

    theta, thetas = [], []
    for i in range(d + 1):
        sign = field.one() if i % 2 == 0 else -field.one()
        theta.append(v["theta0"] + h * (s - 1 + (1 - s + N(2 * i)) * sign))
        thetas.append(v["thetastar0"] + hs * (ss - 1 + (1 - ss + N(2 * i)) * sign))

    four = N(4) * h * hs
    varphi, phi = [], []
    for i in range(1, d + 1):
        if d % 2 == 0:
            if i % 2 == 0:
                varphi.append(-four * N(i) * (N(i) + r1))
                phi.append(four * N(i) * (N(i) - ss - r1))
            else:
                varphi.append(-four * (N(i) - N(d + 1)) * (N(i) + r2))
                phi.append(four * (N(i) - N(d + 1)) * (N(i) - ss - r2))
        else:
            if i % 2 == 0:
                varphi.append(-four * N(i) * (N(i) - N(d + 1)))
                phi.append(-four * N(i) * (N(i) - N(d + 1)))
            else:
                varphi.append(-four * (N(i) + r1) * (N(i) + r2))
                phi.append(-four * (N(i) - ss - r1) * (N(i) - ss - r2))
    return theta, thetas, varphi, phi


def _build_orphan(field, d, v):
    h, hs, s, ss, r = v["h"], v["hstar"], v["s"], v["sstar"], v["r"]
    fam = "orphan"
    _require(d == 3, fam, "diameter 3")
    one = field.one()
    for name in ("h", "hstar", "s", "sstar", "r"):
        _require(bool(v[name]), fam, f"{name} != 0")
    _require(s != one, fam, "s != 1")
    _require(ss != one, fam, "s* != 1")
    _require(r != s + ss, fam, "r != s + s*")
    _require(r != s * (one + ss), fam, "r != s(1 + s*)")
    _require(r != ss * (one + s), fam, "r != s*(1 + s)")
    gamma = (field.zero(), one, one, field.zero())
    N = field.from_int
    theta = [v["theta0"] + h * (s * N(i) + gamma[i]) for i in range(4)]
    thetas = [v["thetastar0"] + hs * (ss * N(i) + gamma[i]) for i in range(4)]
    hh = h * hs
    varphi = [hh * r, hh, hh * (r + s + ss)]
    phi = [hh * (r + s * (one + ss)), hh, hh * (r + ss * (one + s))]
    return theta, thetas, varphi, phi


ORACLE_BUILDERS = {
    "q-racah": _build_q_racah,
    "q-hahn": _build_q_hahn,
    "dual-q-hahn": _build_dual_q_hahn,
    "quantum-q-krawtchouk": _build_quantum_q_krawtchouk,
    "q-krawtchouk": _build_q_krawtchouk,
    "affine-q-krawtchouk": _build_affine_q_krawtchouk,
    "dual-q-krawtchouk": _build_dual_q_krawtchouk,
    "racah": _build_racah,
    "hahn": _build_hahn,
    "dual-hahn": _build_dual_hahn,
    "krawtchouk": _build_krawtchouk,
    "bannai-ito": _build_bannai_ito,
    "orphan": _build_orphan,
}


def oracle_check_char(family, d, field):
    char = field.characteristic()
    if family in ORDINARY_FAMILIES and not (char == 0 or char > d):
        raise CharacteristicMismatch(
            f"{family} needs characteristic 0 or above {d}, field has {char}")
    if family == "bannai-ito" and not (char == 0 or (char > 2 and 2 * char > d)):
        raise CharacteristicMismatch(
            f"bannai-ito needs characteristic 0 or an odd prime above {d}/2, "
            f"field has {char}")
    if family == "orphan" and char != 2:
        raise CharacteristicMismatch(
            f"orphan needs characteristic 2, field has {char}")


def oracle_generate(fp, field):
    """`generate` as it was, over the builders above."""
    oracle_check_char(fp.family, fp.d, field)
    theta, thetas, varphi, phi = ORACLE_BUILDERS[fp.family](field, fp.d, fp.values)
    p = make_array(field, theta, thetas, varphi, phi)
    rep = validate(p)
    if not rep.ok():
        raise IdentityViolated(
            "family output failed validation: " + "; ".join(validation_lines(rep)))
    if fp.d >= 3:
        base = family_base(fp, field)
        if base + base.inverse() + 1 != beta_plus_one(p):
            raise IdentityViolated("family output has the wrong eigenvalue ratio")
    return p


def outcome(make, fp, field):
    """The array, or the exception type and message."""
    try:
        return make(fp, field)
    except LeonardError as e:
        return type(e), str(e)


FIELDS = {
    "Q": rational_field(),
    "GF(11)": prime_field(11),
    "GF(3^3)": extension_field(3, 3, _find_irreducible(3, 3)),
    "GF(2^4)": extension_field(2, 4, _find_irreducible(2, 4)),
}


def random_values(family, d, field, rng):
    """Unconstrained scalars: small integers over Q, any element otherwise,
    so that zeros and coincidences trip the preconditions.  Every other draw
    solves r2 from the family's relation, so that the checks after it run."""
    def draw():
        if field.is_finite():
            return field.random_element(rng)
        return field.from_int(rng.randint(-3, 3))
    v = {name: draw() for name in family_param_names(family)}
    if "r2" in v and rng.random() < 0.5:
        N = field.from_int
        if family == "q-racah" and v["r1"] and v["q"]:
            v["r2"] = v["s"] * v["sstar"] * v["q"] ** (d + 1) / v["r1"]
        elif family == "racah":
            v["r2"] = v["s"] + v["sstar"] + N(d + 1) - v["r1"]
        elif family == "bannai-ito":
            v["r2"] = N(d + 1) - v["s"] - v["sstar"] - v["r1"]
    return v


@pytest.mark.parametrize("field_name", list(FIELDS))
@pytest.mark.parametrize("family", list(FAMILY_PARAMS))
def test_table_matches_the_builders(family, field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"{family} {field_name}")
    compared = 0
    for d in (1, 2, 3, 5):
        cases = []
        for _ in range(3):
            fp = sample_params(family, d, field, rng)
            if fp is not None:
                cases.append(fp)
        cases += [FamilyParams(family, d, random_values(family, d, field, rng))
                  for _ in range(12)]
        for fp in cases:
            want = outcome(oracle_generate, fp, field)
            got = outcome(generate, fp, field)
            assert got == want, (family, field_name, d, fp.values)
            compared += 1
    assert compared >= 48


GF4 = extension_field(2, 2, (1, 1, 1))


def test_orphan_row_matches_the_builder_on_all_of_gf4():
    """Every (h, h*, s, s*, r) in GF(4)^5 at d = 3, with theta0 =
    thetastar0 = 0."""
    zero = GF4.zero()
    elements = list(GF4.elements())
    outcomes = {}
    for scalars in itertools.product(elements, repeat=5):
        values = dict(zip(("h", "hstar", "s", "sstar", "r"), scalars),
                      theta0=zero, thetastar0=zero)
        fp = FamilyParams("orphan", 3, values)
        want = outcome(oracle_generate, fp, GF4)
        assert outcome(generate, fp, GF4) == want, values
        key = "array" if isinstance(want, ParameterArray) else want[1]
        outcomes[key] = outcomes.get(key, 0) + 1
    # 576 orphans over GF(4), 36 with each (theta0, thetastar0); and every
    # precondition but the diameter fails somewhere
    assert outcomes["array"] == 36
    assert len(outcomes) == 11


@pytest.mark.parametrize("d", [2, 4])
def test_orphan_row_rejects_other_diameters_like_the_builder(d):
    rng = random.Random(f"orphan d={d}")
    for _ in range(60):
        fp = FamilyParams("orphan", d, random_values("orphan", d, GF4, rng))
        want = outcome(oracle_generate, fp, GF4)
        assert want == (PreconditionViolated, "orphan: requires diameter 3")
        assert outcome(generate, fp, GF4) == want, fp.values


def oracle_characteristic_admissible(family, d, field) -> bool:
    """Whether the field characteristic allows the family at diameter d."""
    if not _characteristic_allows(family, d, field.characteristic()):
        return False
    if family == "orphan":
        return d == 3
    # case I: needs a scalar of multiplicative order above d
    if FAMILIES[family].case == "I" and field.is_finite():
        return field.order() - 1 > d
    return True


def oracle_sample_params(family, d, field, rng,
                         max_tries: int = 400) -> Optional[FamilyParams]:
    """Rejection-sample admissible parameters; None when the field cannot
    host the family at this diameter (or the sampler runs out of tries)."""
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    if not oracle_characteristic_admissible(family, d, field):
        return None
    one = field.one()
    N = field.from_int
    for _ in range(max_tries):
        values = {
            "theta0": field.random_element(rng),
            "thetastar0": field.random_element(rng),
        }
        try:
            if family in Q_FAMILIES:
                values["q"] = _random_nonzero(field, rng, exclude=(one, -one))
            for name in FAMILY_PARAMS[family]:
                if name in values or name == "r2":
                    continue
                values[name] = _random_nonzero(field, rng)
            if family == "q-racah":
                qq = _QPowers(values["q"])
                values["r2"] = (values["s"] * values["sstar"] * qq(d + 1)
                                / values["r1"])
            elif family == "racah":
                values["r2"] = values["s"] + values["sstar"] + N(d + 1) - values["r1"]
            elif family == "bannai-ito":
                values["r2"] = N(d + 1) - values["s"] - values["sstar"] - values["r1"]
            fp = FamilyParams(family=family, d=d, values=values)
            generate(fp, field)
            return fp
        except PreconditionViolated:
            continue
    return None


@pytest.mark.parametrize("field_name", list(FIELDS) + ["GF(5)"])
@pytest.mark.parametrize("family", list(FAMILY_PARAMS))
def test_sampler_reads_the_row_like_the_old_sampler(family, field_name):
    """The same parameters or the same None, in the same key order, with
    the generator left in the same state."""
    field = FIELDS.get(field_name) or prime_field(5)
    found = 0
    for d in range(1, 7):
        for seed in range(3):
            old_rng = random.Random(f"{family} {field_name} {d} {seed}")
            new_rng = random.Random(f"{family} {field_name} {d} {seed}")
            want = oracle_sample_params(family, d, field, old_rng)
            got = sample_params(family, d, field, new_rng)
            assert got == want, (family, field_name, d, seed)
            if want is not None:
                assert list(got.values) == list(want.values)
                found += 1
            assert new_rng.getstate() == old_rng.getstate()
    assert found > 0 or not any(
        oracle_characteristic_admissible(family, d, field) for d in range(1, 7))


def oracle_closed_form_spec(fp: FamilyParams, i: int, j: int) -> HypergeomSpec:
    """The terminating series equal to f_i(theta_j) for display families."""
    family, v = fp.family, fp.values
    if family not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"{family} has no terminating series display")
    F = fp.field
    d = fp.d
    if family in Q_FAMILIES:
        q = v["q"]
        qq = _QPowers(q)
        qi, qj, qd = qq(-i), qq(-j), qq(-d)
        if family == "q-racah":
            return HypergeomSpec("basic",
                                 (qi, v["sstar"] * qq(i + 1), qj, v["s"] * qq(j + 1)),
                                 (v["r1"] * q, v["r2"] * q, qd), q, q)
        if family == "q-hahn":
            return HypergeomSpec("basic",
                                 (qi, v["sstar"] * qq(i + 1), qj),
                                 (v["r"] * q, qd), q, q)
        if family == "dual-q-hahn":
            return HypergeomSpec("basic",
                                 (qi, qj, v["s"] * qq(j + 1)),
                                 (v["r"] * q, qd), q, q)
        if family == "quantum-q-krawtchouk":
            z = v["s"] * v["r"].inverse() * qq(j + 1)
            return HypergeomSpec("basic", (qi, qj), (qd,), z, q)
        if family == "q-krawtchouk":
            return HypergeomSpec("basic",
                                 (qi, v["sstar"] * qq(i + 1), qj),
                                 (F.zero(), qd), q, q)
        if family == "affine-q-krawtchouk":
            return HypergeomSpec("basic",
                                 (qi, F.zero(), qj),
                                 (v["r"] * q, qd), q, q)
        # dual-q-krawtchouk
        return HypergeomSpec("basic",
                             (qi, qj, v["s"] * qq(j + 1)),
                             (F.zero(), qd), q, q)
    N = F.from_int
    one = F.one()
    if family == "racah":
        return HypergeomSpec("ordinary",
                             (N(-i), N(i + 1) + v["sstar"], N(-j), N(j + 1) + v["s"]),
                             (v["r1"] + one, v["r2"] + one, N(-d)), one)
    if family == "hahn":
        return HypergeomSpec("ordinary",
                             (N(-i), N(i + 1) + v["sstar"], N(-j)),
                             (v["r"] + one, N(-d)), one)
    if family == "dual-hahn":
        return HypergeomSpec("ordinary",
                             (N(-i), N(-j), N(j + 1) + v["s"]),
                             (v["r"] + one, N(-d)), one)
    # krawtchouk
    z = v["s"] * v["sstar"] * v["r"].inverse()
    return HypergeomSpec("ordinary", (N(-i), N(-j)), (N(-d),), z)


def series_outcome(spec_of, fp, i, j):
    """The series sum at (i, j), or the type of the exception it raised."""
    try:
        return hypergeom_sum(spec_of(fp, i, j), fp.d + 2)
    except (LeonardError, ZeroDivisionError) as e:
        return type(e)


@pytest.mark.parametrize("field_name", list(FIELDS))
@pytest.mark.parametrize("family", list(CLOSED_FORM_FAMILIES))
def test_series_rows_match_the_old_displays(family, field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"series {family} {field_name}")
    sums = 0
    for d in range(1, 6):
        cases = [sample_params(family, d, field, rng) for _ in range(2)]
        cases = [fp for fp in cases if fp is not None]
        sums += len(cases)
        cases += [FamilyParams(family, d, random_values(family, d, field, rng))
                  for _ in range(2)]
        for fp in cases:
            for i in range(d + 1):
                for j in range(d + 1):
                    want = series_outcome(oracle_closed_form_spec, fp, i, j)
                    got = series_outcome(closed_form_spec, fp, i, j)
                    assert got == want, (family, field_name, d, i, j, fp.values)
    assert sums >= 2


def fit_closed_form_theta(theta, q, case):
    """The case-III branch of classify.fit_closed_form_theta as it was."""
    assert case == "III"
    F = theta[0].field
    d = len(theta) - 1
    zero, one = F.zero(), F.one()
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
    return _make_witness("III", "bannai-ito", ext, lift, d, values, p)


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
    return _make_witness("IV", "orphan", F, _identity, 3, values, p)


def witness_json(step, p):
    """What `leonard classify` prints of the witness that step finds, or the
    exception type and message."""
    try:
        w = step(p)
    except LeonardError as e:
        return type(e), str(e)
    return json.dumps({"case": w.case, "family": w.family,
                       "parameters": w.params.to_json(),
                       "field_of_witness": w.field.spec.to_json()})


CLASSIFY_FIELDS = {
    "Q": rational_field(),
    "GF(11)": prime_field(11),
    "GF(101)": prime_field(101),
    "GF(3^3)": FIELDS["GF(3^3)"],
}


@pytest.mark.parametrize("field_name", list(CLASSIFY_FIELDS))
def test_case3_witness_matches_the_old_classifier(field_name, capsys,
                                                  monkeypatch, tmp_path):
    field = CLASSIFY_FIELDS[field_name]
    rng = random.Random(f"case III {field_name}")
    fit_case = classify_module._fit_case

    def new_case3(p):
        return fit_case(p, "III", -field.one())

    def old_fit_case(p, case, q, *rest):
        return _case3(p) if case == "III" else fit_case(p, case, q, *rest)

    def classify_cli(path, step):
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_fit_case", step)
            code = main(["classify", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    printed_case3 = set()
    for d in range(1, 9):
        for k in range(3):
            fp = sample_params("bannai-ito", d, field, rng)
            if fp is None:
                continue
            p = generate(fp, field)
            # the case-III step alone, at every d
            assert witness_json(new_case3, p) == witness_json(_case3, p), (
                field_name, d, fp.values)
            # and everything classify prints
            path = tmp_path / f"bi-{d}-{k}.json"
            path.write_text(json.dumps(p.to_json()))
            got = classify_cli(path, fit_case)
            assert got == classify_cli(path, old_fit_case), (field_name, d)
            if got[0] == 0 and json.loads(got[1])["case"] == "III":
                printed_case3.add(d)
    want = set(range(3, 9)) if field.characteristic() != 3 else {3, 4, 5}
    assert printed_case3 >= want


def test_case4_witness_matches_the_old_classifier(capsys, monkeypatch, tmp_path):
    """classify with the case-IV normal form against classify with _case4,
    on every GF(4) array at d = 3 and the first 2,000 over GF(8)."""
    fit_case = classify_module._fit_case

    def old_fit_case(p, case, q, *rest):
        return _case4(p) if case == "IV" else fit_case(p, case, q, *rest)

    def classify_with(step, p):
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_fit_case", step)
            return witness_json(classify_module.classify, p)

    def classify_cli(path, step):
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_fit_case", step)
            code = main(["classify", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    gf8 = extension_field(2, 3, (1, 1, 0, 1))
    orphans = {}
    for name, field, limit in (("GF(4)", GF4, None), ("GF(8)", gf8, 2000)):
        arrays = itertools.islice(enumerate_arrays(field, 3), limit)
        orphans[name] = 0
        for k, p in enumerate(arrays):
            got = classify_with(fit_case, p)
            assert got == classify_with(old_fit_case, p), (name, k)
            orphans[name] += '"case": "IV"' in got
            if k % 97 == 0:
                path = tmp_path / f"{name}-{k}.json"
                path.write_text(json.dumps(p.to_json()))
                assert classify_cli(path, fit_case) == classify_cli(
                    path, old_fit_case), (name, k)
    assert orphans == {"GF(4)": 576, "GF(8)": 1456}


def _solve(self, rhs):
    if len(rhs) != self.n:
        raise ValueError("rhs length must equal n")
    inv = self.inverse()
    return [sum((a * b for a, b in zip(row, rhs)), start=self.field.zero())
            for row in inv.rows]


def fit_closed_form_theta_by_solve(theta, q, case):
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

    if case not in ("I", "II", "III"):
        raise ValueError(f"unknown case {case!r}")
    if case == "I":
        if q == zero or q == one or q == -one:
            return None
        if d == 1:
            h = (theta[1] - theta[0]) / (q.inverse() - 1)
            eta, mu = theta[0] - h, zero
        else:
            rows = [[one, q ** i, q ** (-i)] for i in range(3)]
            try:
                eta, mu, h = _solve(SquareMatrix.from_rows(F, rows), list(theta[:3]))
            except SingularMatrix:
                return None
    elif F.characteristic() == 2:  # cases II and III divide by 2
        return None
    elif case == "II":
        if d == 1:
            eta, mu, h = theta[0], theta[1] - theta[0], zero
        else:
            h = (theta[2] - theta[1] - (theta[1] - theta[0])) / F.from_int(2)
            mu = theta[1] - theta[0] - 2 * h
            eta = theta[0]
    elif d == 1:  # case III
        eta, mu, h = theta[0], zero, (theta[0] - theta[1]) / F.from_int(2)
    else:
        h = (theta[2] - theta[0]) / F.from_int(4)
        mu = (theta[0] - theta[1]) / F.from_int(2) - h
        eta = theta[0] - mu
    P = _QPowers(q) if case == "I" else F.from_int
    if list(theta) != _FORMS[case].eigenvalues(P, d, eta, mu, h):
        return None
    return eta, mu, h


FIT_FIELDS = {
    "Q": rational_field(),
    "GF(5)": prime_field(5),
    "GF(7)": prime_field(7),
    "GF(101)": prime_field(101),
    "GF(4)": extension_field(2, 2, _find_irreducible(2, 2)),
    "GF(3^2)": extension_field(3, 2, _find_irreducible(3, 2)),
}


def fit_outcome(fit, theta, q, case):
    try:
        return fit(theta, q, case)
    except ValueError as e:
        return ValueError, str(e)


@pytest.mark.parametrize("field_name", list(FIT_FIELDS))
def test_fit_matches_the_solve(field_name):
    field = FIT_FIELDS[field_name]
    rng = random.Random(f"fit {field_name}")
    zero, one = field.zero(), field.one()
    special = (zero, one, -one)

    def draw_base():
        """0, 1 or -1 three times in ten, else another element."""
        if rng.random() < 0.3:
            return rng.choice(special)
        while True:
            x = field.random_element(rng)
            if x not in special:
                return x

    new_fit = classify_module.fit_closed_form_theta
    fitted = {case: 0 for case in ("I", "II", "III")}
    for case in fitted:
        for d in range(1, 7):
            for _ in range(30):
                q = draw_base()
                # theta has the case's shape, mostly at base q, or is random
                shape_q = q if rng.random() < 0.8 else draw_base()
                if rng.random() < 0.25 or (case == "I" and shape_q in special):
                    theta = [field.random_element(rng) for _ in range(d + 1)]
                else:
                    P = _QPowers(shape_q) if case == "I" else field.from_int
                    theta = _FORMS[case].eigenvalues(
                        P, d, *(field.random_element(rng) for _ in range(3)))
                want = fit_outcome(fit_closed_form_theta_by_solve, theta, q, case)
                assert fit_outcome(new_fit, theta, q, case) == want, (
                    field_name, case, d, q, theta)
                fitted[case] += want is not None
    for bad_case, theta in (("I", [one]), ("II", []), ("IV", [zero, one])):
        want = fit_outcome(fit_closed_form_theta_by_solve, theta, one, bad_case)
        assert want[0] is ValueError
        assert fit_outcome(new_fit, theta, one, bad_case) == want
    assert fitted["I"] >= 40
    if field.characteristic() != 2:
        assert fitted["II"] >= 40 and fitted["III"] >= 40


def parent_q_fit(P, theta) -> Optional[tuple]:
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
    return ((d2 - qi * d1) / ((q - one) * (q - qi)),
            (d2 - q * d1) / ((qi - one) * (qi - q)))


@pytest.mark.parametrize("field_name", list(FIT_FIELDS) + ["GF(3^8)"])
def test_q_fit_matches_the_two_inverse_fit(field_name):
    field = FIT_FIELDS.get(field_name) or extension_field(3, 8, _find_irreducible(3, 8))
    rng = random.Random(f"q_fit {field_name}")
    special = (field.zero(), field.one(), -field.one())
    fitted = 0
    for _ in range(300):
        q = rng.choice(special)
        while q in special and rng.random() > 0.1:  # 0, 1 or -1 about one time in ten
            q = field.random_element(rng)
        theta = [field.random_element(rng) for _ in range(rng.randint(2, 5))]
        want = parent_q_fit(_QPowers(q), theta)
        assert q_fit(_QPowers(q), theta) == want, (field_name, q, theta)
        fitted += want is not None
    assert fitted >= 200


def q_splits(P, d, mu, mus, h, hs, tau) -> tuple[list, list]:
    """Case I varphi and phi, with phi_i and varphi_i carrying the frame
    (q^i - 1)(q^(d-i+1) - 1)."""
    mm, hh, hm, mh = mu * mus, h * hs, h * mus, mu * hs
    varphi, phi = [], []
    for i in range(1, d + 1):
        frame = (P(i) - P(0)) * (P(d - i + 1) - P(0))
        varphi.append(frame * (tau - mm * P(i - 1) - hh * P(-i - d)))
        phi.append(frame * (tau - hm * P(i - d - 1) - mh * P(-i)))
    return varphi, phi


def ordinary_splits(P, d, mu, mus, h, hs, tau) -> tuple[list, list]:
    """Case II varphi and phi, with the frame i (d - i + 1):
    varphi_i = frame (tau - (mu h* + h mu*) i - h h* i (i + d + 1)),
    phi_i = frame (tau + mu mu* + h mu* (d + 1) + (mu h* - h mu*) i
                   + h h* i (d - i + 1))."""
    a, b, hh = mu * hs, h * mus, h * hs
    cross, twist, top = a + b, a - b, tau + mu * mus + b * P(d + 1)
    varphi, phi = [], []
    for i in range(1, d + 1):
        ni = P(i)
        frame = ni * P(d - i + 1)
        varphi.append(frame * (tau - ni * (cross + hh * P(i + d + 1))))
        phi.append(frame * (top + twist * ni + hh * frame))
    return varphi, phi


def alternating_splits(P, d, mu, mus, h, hs, tau) -> tuple[list, list]:
    """Case III (Bannai-Ito) varphi and phi, where mu = h (1 - s),
    mu* = h* (1 - s*), r1 + r2 = d + 1 - s - s*, and tau = h h* r1 r2 for
    odd d, h h* r2 for even d.  Odd d: varphi_i = phi_i = -4 h h* i (i-d-1)
    at even i; varphi_i = -4 h h* (i+r1)(i+r2), phi_i =
    -4 h h* (i-s*-r1)(i-s*-r2) at odd i.  Even d: varphi_i = -4 h h* f (i+r),
    phi_i = 4 h h* f (i-s*-r), with (f, r) = (i, r1) at even i and
    (i-d-1, r2) at odd i."""
    hh, four = h * hs, P(4)
    total = hh * P(d - 1) + h * mus + mu * hs  # h h* (r1 + r2)
    hss = h * (hs - mus)                        # h h* s*
    varphi, phi = [], []
    for i in range(1, d + 1):
        n, m = P(i), P(i - d - 1)
        if d % 2 and i % 2 == 0:
            varphi.append(-four * hh * n * m)
            phi.append(varphi[-1])
        elif d % 2:
            varphi.append(-four * (n * (hh * n + total) + tau))
            phi.append(-four * ((hs * n - hs + mus) * (h * m + h - mu) + tau))
        else:
            f, r = (n, total - tau) if i % 2 == 0 else (m, tau)
            varphi.append(-four * f * (hh * n + r))
            phi.append(four * f * (hh * n - hss - r))
    return varphi, phi


def orphan_splits(P, d, mu, mus, h, hs, tau) -> tuple[list, list]:
    """Case IV varphi = (tau, h h*, tau + mu h* + h mu*) and
    phi = (tau + mu h* + mu mu*, h h*, tau + h mu* + mu mu*)."""
    hh, mh, hm, mm = h * hs, mu * hs, h * mus, mu * mus
    return [tau, hh, tau + mh + hm], [tau + mh + mm, hh, tau + hm + mm]


CLOSED_FORM_SPLITS = {"I": q_splits, "II": ordinary_splits,
                      "III": alternating_splits, "IV": orphan_splits}


def pa3_pa4_hold(theta, theta_star, varphi, phi) -> bool:
    """PA3 and PA4 as the paper states them; theta_0 != theta_d."""
    d = len(theta) - 1
    den = theta[0] - theta[d]
    for i in range(1, d + 1):
        S = sum((theta[h] - theta[d - h] for h in range(i)), theta[0].field.zero()) / den
        D = theta_star[i] - theta_star[0]
        if varphi[i - 1] != phi[0] * S + D * (theta[i - 1] - theta[d]):
            return False
        if phi[i - 1] != varphi[0] * S + D * (theta[d - i + 1] - theta[0]):
            return False
    return True


def closed_form_splits_checked(field, case, d, rng) -> bool:
    """Draw (mu, mu*, h, h*, tau, eta, eta*), and q in case I; False when
    theta_0 = theta_d leaves PA3 and PA4 undefined.  Otherwise assert that
    the closed-form splits satisfy PA3 and PA4 and that the form's varphi1
    gives their varphi_1."""
    def draw():
        if field.is_finite():
            return field.random_element(rng)
        return field.from_int(rng.randint(-9, 9)) / field.from_int(rng.randint(1, 4))
    q = None
    if case == "I":
        q = draw()
        while not q:
            q = draw()
    P = _QPowers(q) if case == "I" else field.from_int
    mu, mus, h, hs, tau, eta, etas = (draw() for _ in range(7))
    form = _FORMS[case]
    theta = form.eigenvalues(P, d, eta, mu, h)
    if theta[0] == theta[d]:
        return False
    theta_star = form.eigenvalues(P, d, etas, mus, hs)
    varphi, phi = CLOSED_FORM_SPLITS[case](P, d, mu, mus, h, hs, tau)
    assert pa3_pa4_hold(theta, theta_star, varphi, phi), (case, d, q, mu, mus, h, hs, tau)
    slope, offset = form.varphi1(P, d, mu, mus, h, hs)
    assert varphi[0] == slope * tau + offset, (case, d, q, mu, mus, h, hs, tau)
    return True


SPLIT_FIELDS = {
    "Q": rational_field(),
    "GF(7)": prime_field(7),
    "GF(101)": prime_field(101),
    "GF(1000003)": prime_field(1000003),
    "GF(4)": GF4,
    "GF(9)": extension_field(3, 2, _find_irreducible(3, 2)),
}


@pytest.mark.parametrize("field_name", list(SPLIT_FIELDS))
def test_closed_form_splits_satisfy_pa3_and_pa4(field_name):
    """The closed-form splits that generate and classify read before PA3 and
    PA4 replaced them: for arbitrary coordinates they are the split sequences
    that PA3 and PA4 complete from theta, theta* and varphi_1, so the two
    descriptions give the same arrays."""
    field = SPLIT_FIELDS[field_name]
    rng = random.Random(f"closed-form splits {field_name}")
    checked = {case: sum(closed_form_splits_checked(field, case, d, rng)
                         for d in range(1, 9) for _ in range(48))
               for case in ("I", "II", "III")}
    # a case-III theta is constant in characteristic 2
    if field.characteristic() == 2:
        assert checked.pop("III") == 0
    assert min(checked.values()) >= 100, checked


def test_orphan_splits_satisfy_pa3_and_pa4():
    """Case IV, at d = 3 in characteristic 2."""
    rng = random.Random("closed-form splits orphan")
    checked = sum(closed_form_splits_checked(GF4, "IV", 3, rng) for _ in range(200))
    assert checked >= 100
