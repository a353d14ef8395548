"""The derived objects of an array over Q against those of its reduction
mod p.

Reduction Z_(p) -> GF(p) is a ring map.  Take a Q array whose entries have
denominators prime to p and whose reduction validates: then every
difference of eigenvalues, varphi_i and phi_i that the derived objects
divide by is a p-unit, so each derived object of the Q array reduces,
entry by entry, to that of the GF(p) array.  Checked here: the matrices of
the `matrices` dump, the table P of `poly-table` and the payloads of
`weights` and `recurrence`; and both scoreboards pass.  The Q kernel
(`RationalField._matmul`, fraction-free by row and column) and the
generic kernel of GF(p) share no code, and nor do the two intertwining
tests of the three-term, difference and conjugation checks
(`_intertwining_failures`), so this checks one field kind's version of
the payload layers against the other's.

The inputs are the Q inputs of `test_leonard_oracle.audit_cases` (a
sampled array of every family at d <= 4, its perturbations and random
PA1-PA2 sequences), the Q arrays of `test_recurrence_routes` (every family
at d <= 12) and the CI q-Racah array at d = 6, at p = 1000003 and
p = 10007, each kept where its denominators are p-units and its
reduction validates.

    python tests/test_reduction.py D

runs the same comparison on the CI q-Racah array at diameter D, at both
primes; CI runs it at D = 24.
"""

from __future__ import annotations

import sys

import pytest

from leonard import Analysis, make_array, prime_field, validate
from leonard.cli import _DUMPS, _scoreboard
from conftest import ci_q_racah
from test_leonard_oracle import audit_cases
from test_recurrence_routes import sampled_arrays

PRIMES = (1000003, 10007)


def reduce_value(p, value):
    """The GF(p) payload of the Q payload (n, d), d prime to p."""
    n, d = value
    return n * pow(d, -1, p) % p


def reduction(p, array):
    """The GF(p) array of a Q array, or None where a denominator is
    divisible by p or the reduction does not validate."""
    F = prime_field(p)
    seqs = (array.theta, array.theta_star, array.varphi, array.phi)
    if any(x.value[1] % p == 0 for seq in seqs for x in seq):
        return None
    reduced = make_array(F, *([F._elements[reduce_value(p, x.value)] for x in seq]
                              for seq in seqs))
    return reduced if validate(reduced).ok() else None


def derived_payloads(array):
    """The payloads that the `matrices`, `poly-table`, `weights` and
    `recurrence` outputs print, by name."""
    a = Analysis(array)
    out = {f"matrices {name}": getattr(a.matrices, name).values
           for name in _DUMPS["matrices"][2]}
    out["poly-table P"] = a.polys.P.values
    out["weights"] = a.ortho.values
    out["recurrence"] = a.recurrence.values
    return out


def reduce_payloads(p, x):
    """x with every Q payload, at any depth of tuples, reduced mod p."""
    if isinstance(x, tuple) and len(x) == 2 and all(type(v) is int for v in x):
        return reduce_value(p, x)
    return tuple(reduce_payloads(p, v) for v in x)


def assert_reduces(p, array, name):
    """Every derived object of array reduces mod p to that of its GF(p)
    reduction, and both scoreboards pass."""
    reduced = reduction(p, array)
    assert reduced is not None, (p, name)
    want = derived_payloads(reduced)
    for key, got in derived_payloads(array).items():
        assert reduce_payloads(p, got) == want[key], (p, name, key)
    for arr in (array, reduced):
        lines, ok = _scoreboard(arr)
        assert ok, (p, name, arr.field, lines)


def q_inputs():
    """The Q audit cases, each distinct array once, then the sampled Q
    arrays up to d = 12 and the CI q-Racah array at d = 6."""
    seen = set()
    for name, change, array in audit_cases("Q"):
        if array not in seen:
            seen.add(array)
            yield f"{name}, {change}", array
    yield from sampled_arrays("Q")
    yield "CI q-racah d=6", ci_q_racah(6)


@pytest.mark.parametrize("p", PRIMES)
def test_derived_objects_reduce_mod_p(p):
    compared = set()
    for name, array in q_inputs():
        if reduction(p, array) is not None:
            assert_reduces(p, array, name)
            compared.add(array.d)
    # every diameter of the sampled arrays
    assert compared == set(range(1, 13)), compared


if __name__ == "__main__":
    d = int(sys.argv[1])
    for p in PRIMES:
        assert_reduces(p, ci_q_racah(d), f"CI q-racah d={d}")
    primes = " and mod ".join(map(str, PRIMES))
    print(f"CI q-racah d={d}: every derived object reduces mod {primes}")
