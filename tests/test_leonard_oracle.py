"""The structured split-basis checks against the dense ones they replaced.

lagrange_leonard_conditions is the O(n^5) check that splitmat used before:
it forms every primitive idempotent as a product of Lagrange factors and
tests each block E_i X E_j as a whole matrix.  sandwich_conjugation is the
conjugation check in the paper's form, Ginv X G = Y, with every product
dense and D^-1 by Gauss-Jordan.  Each fast check must report the same
failures, in the same order, on sampled arrays of every family and on arrays
broken in ways that do and do not keep the blocks tridiagonal.
"""

import random
from dataclasses import replace
from functools import reduce

import pytest

from leonard import (
    Analysis,
    CheckReport,
    RepeatedEigenvalue,
    SquareMatrix,
    build,
    extension_field,
    generate,
    list_families,
    prime_field,
    primitive_idempotents,
    rational_field,
    sample_params,
    verify_conjugation,
    verify_leonard_conditions,
)
from conftest import dense_mul, qarr

FIELDS = {
    "Q": rational_field(),
    "GF(7)": prime_field(7),
    "GF(11)": prime_field(11),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
}


def lagrange_leonard_conditions(p):
    m = build(p)
    F, d = p.field, p.d
    n = d + 1
    report = CheckReport("leonard-conditions")
    zero_mat = SquareMatrix.build(F, n, lambda i, j: F.zero())
    ident = SquareMatrix.identity(F, n)

    E = primitive_idempotents(m.A, p.theta)
    Estar = primitive_idempotents(m.Astar, p.theta_star)

    for label, fam in (("E", E), ("E*", Estar)):
        total = zero_mat
        for e in fam:
            total = total + e
        if total != ident:
            report.add(f"{label} idempotents do not sum to the identity")
        for i in range(n):
            for j in range(n):
                got = fam[i] * fam[j]
                want = fam[i] if i == j else zero_mat
                if got != want:
                    report.add(f"{label}_{i} {label}_{j} product is wrong")

    for label, fam, op in (("E* A E*", Estar, m.A), ("E A* E", E, m.Astar)):
        for i in range(n):
            for j in range(n):
                block = fam[i] * op * fam[j]
                if abs(i - j) > 1 and block != zero_mat:
                    report.add(f"{label} block ({i}, {j}) should vanish")
                if abs(i - j) == 1 and block == zero_mat:
                    report.add(f"{label} block ({i}, {j}) should be nonzero")
    return report


def sandwich_conjugation(p):
    m = build(p)
    F, n = p.field, p.d + 1
    report = CheckReport("conjugation")

    def mul(*factors):
        return reduce(dense_mul, factors)

    Ginv = mul(m.Tdown.inverse(), m.Z, m.T)
    checks = [
        ("G * Ginv = I", mul(m.G, Ginv), SquareMatrix.identity(F, n)),
        ("Ginv * A * G = B", mul(Ginv, m.A, m.G), m.B),
        ("Ginv * A* * G = B*", mul(Ginv, m.Astar, m.G), m.Bstar),
        ("T A = H T", mul(m.T, m.A), mul(m.H, m.T)),
        ("Z Tdown B = H Z Tdown", mul(m.Z, m.Tdown, m.B), mul(m.H, m.Z, m.Tdown)),
        ("D A* D^-1 T*^t = T*^t H*",
         mul(m.D, m.Astar, m.D.inverse(), m.Tstar.transpose()),
         mul(m.Tstar.transpose(), m.Hstar)),
    ]
    for label, got, want in checks:
        if got != want:
            report.add(label + " violated")
    return report


def outcome(check, p):
    """The failure list, or the type of the exception raised."""
    try:
        return check(p).failures
    except Exception as e:  # the comparison is over exception types
        return type(e)


def perturbations(p, rng):
    """The array, then one copy each with a zero varphi entry, a zero phi
    entry, 1 added to a varphi entry, and 1 added to a theta* entry."""
    F, d = p.field, p.d

    def bumped(values, k, new):
        return tuple(new if i == k else x for i, x in enumerate(values))

    k = rng.randrange(d)
    j = rng.randrange(d + 1)
    yield "as sampled", p
    yield f"varphi_{k + 1} = 0", replace(p, varphi=bumped(p.varphi, k, F.zero()))
    yield f"phi_{k + 1} = 0", replace(p, phi=bumped(p.phi, k, F.zero()))
    yield f"varphi_{k + 1} + 1", replace(
        p, varphi=bumped(p.varphi, k, p.varphi[k] + F.one()))
    yield f"theta*_{j} + 1", replace(
        p, theta_star=bumped(p.theta_star, j, p.theta_star[j] + F.one()))


def sampled_arrays(label, F):
    """One sampled array per admissible family; the diameter cycles through
    1..4 across families and fields, so each family meets several."""
    rng = random.Random(f"leonard-oracle/{label}")
    shift = list(FIELDS).index(label)
    for index, family in enumerate(list_families()):
        d = 1 + (index + shift) % 4
        fp = sample_params(family, d, F, rng)
        if fp is not None:
            yield f"{family} d={d}", generate(fp, F), rng


@pytest.mark.parametrize("label", list(FIELDS))
def test_eigenvector_check_matches_lagrange_oracle(label):
    F = FIELDS[label]
    compared = set()
    for name, p, rng in sampled_arrays(label, F):
        for change, q in perturbations(p, rng):
            want = outcome(lagrange_leonard_conditions, q)
            got = outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), q)
            assert got == want, (label, name, change)
            compared.add("raises" if isinstance(want, type)
                         else "fails" if want else "passes")
    # raising is left to the next test: over Q no shift hits another theta*
    assert {"passes", "fails"} <= compared, compared


def test_oracle_call_order_on_repeated_eigenvalues():
    # build fails first on a repeated theta, before either eigenvalue test
    both = qarr([0, 0, 2], [0, 0, 2], [1, 1], [1, 1])
    only_star = qarr([0, 1, 2], [0, 0, 2], [1, 1], [1, 1])
    for p in (both, only_star):
        want = outcome(lagrange_leonard_conditions, p)
        assert isinstance(want, type)
        assert outcome(lambda arr: verify_leonard_conditions(Analysis(arr)), p) is want
    with pytest.raises(RepeatedEigenvalue):
        verify_leonard_conditions(Analysis(only_star))


@pytest.mark.parametrize("label", list(FIELDS))
def test_conjugation_check_matches_sandwich_oracle(label):
    F = FIELDS[label]
    compared = set()
    for name, p, rng in sampled_arrays(label, F):
        for change, q in perturbations(p, rng):
            want = outcome(sandwich_conjugation, q)
            got = outcome(lambda arr: verify_conjugation(Analysis(arr)), q)
            assert got == want, (label, name, change)
            compared.add("raises" if isinstance(want, type)
                         else "fails" if want else "passes")
    # a zero varphi makes D singular
    assert compared == {"passes", "fails", "raises"}, compared
