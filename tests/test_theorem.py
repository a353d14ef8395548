"""The paper's theorem as a property: for an array satisfying PA1 and PA2,

  (i)   PA3-PA5 hold (`validate`),
  (ii)  G^-1 A G = B and G^-1 A* G = B*, and
  (iii) each f_i is a scalar multiple of its reversed companion
        (`verify_proportionality`)

are equivalent.  G^-1 A G = B holds on `build` for any distinct theta
(`test_leonard_oracle.py` checks it there), so (ii) is the A* line of
`verify_conjugation` alone, the one line that check computes.

Random scalars almost never satisfy PA5 at d >= 3, so the valid side comes
from the family normal forms through `sample_params`, and the invalid side
from changing one entry of a sampled array.  Over the smallest fields,
`sweep_theorem.py` checks every sequence instead.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leonard import (
    Analysis,
    characteristic_admissible,
    extension_field,
    generate,
    list_families,
    prime_field,
    rational_field,
    sample_params,
    validate,
    verify_conjugation,
    verify_proportionality,
)
from conftest import satisfies_pa1_pa2

FIELDS = {
    "Q": rational_field(),
    "GF(5)": prime_field(5),
    "GF(7)": prime_field(7),
    "GF(11)": prime_field(11),
    "GF(4)": extension_field(2, 2, (1, 1, 1)),
    "GF(9)": extension_field(3, 2, (1, 0, 1)),
}

G_LINE = "Ginv * A* * G = B* violated"


def verdicts(p):
    """(i), (ii) and (iii) for one array."""
    a = Analysis(p)
    return (validate(p).ok(),
            G_LINE not in verify_conjugation(a).failures,
            verify_proportionality(a).ok())


def admissible(family):
    """The (field, d) pairs, d <= 5, over which the family has arrays."""
    return [(name, d) for name, F in FIELDS.items() for d in range(1, 6)
            if characteristic_admissible(family, d, F)]


@pytest.mark.parametrize("family", list_families())
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16),
       entry=st.sampled_from(["theta", "theta_star", "varphi", "phi"]),
       index=st.integers(0, 5), shift=st.integers(1, 3))
def test_the_three_conditions_agree(family, data, seed, entry, index, shift):
    field, d = data.draw(st.sampled_from(admissible(family)))
    F = FIELDS[field]
    fp = sample_params(family, d, F, random.Random(seed))
    assume(fp is not None)
    p = generate(fp, F)
    assert verdicts(p) == (True, True, True), (family, field, d)

    values = list(getattr(p, entry))
    k = index % len(values)
    values[k] = values[k] + F.from_int(shift)
    q = replace(p, **{entry: tuple(values)})
    assume(satisfies_pa1_pa2(q))
    i, ii, iii = verdicts(q)
    assert i == ii == iii, (family, field, d, entry, k, shift, (i, ii, iii))


@pytest.mark.parametrize("field, d, sequences, valid, triples, pairs", [
    (prime_field(3), 1, 144, 36, 72, 36),
    (prime_field(3), 2, 576, 36, 144, 36),
    (FIELDS["GF(4)"], 1, 1296, 288, 432, 288),
], ids=["GF(3)-1", "GF(3)-2", "GF(4)-1"])
def test_every_sequence_over_tiny_fields(field, d, sequences, valid, triples, pairs):
    # imported here: sweep_theorem imports verdicts from this module
    from sweep_theorem import sweep
    assert sweep(field, d) == (sequences, valid, triples, pairs)
