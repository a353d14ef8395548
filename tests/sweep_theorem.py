"""The paper's theorem on every sequence of a small finite field.

    python tests/sweep_theorem.py FIELD D

FIELD is a field spec as `leonard` reads it (`prime:3`, `ext:2:2:1,1,1`).
For every theta and theta* without repeats and every nonzero varphi and phi
(every sequence satisfying PA1 and PA2), the theorem's three conditions must
agree, and the sequences satisfying them must be exactly the arrays that
`enumerate_arrays` lists.  No sampling and no enumerator: the valid arrays
are counted from the theorem's side.  Prints the number of sequences swept
and of valid arrays.

The module name does not start with test_, so pytest does not collect it;
`test_theorem.py` runs the small sizes and a CI step runs GF(4) at d = 2.
"""

from __future__ import annotations

import itertools
import sys

from leonard import Field, enumerate_arrays, make_array
from leonard.cli import parse_field
from test_theorem import verdicts


def sweep(F: Field, d: int) -> tuple[int, int]:
    """Check (i) = (ii) = (iii) on every PA1-PA2 sequence of diameter d
    over F, and that the valid ones are the enumerated arrays.  Returns the
    number of sequences and the number of valid arrays."""
    elements = list(F.elements())
    eigenvalues = list(itertools.permutations(elements, d + 1))
    columns = list(itertools.product([x for x in elements if x], repeat=d))
    sequences = 0
    valid = set()
    for theta, theta_star in itertools.product(eigenvalues, repeat=2):
        for varphi, phi in itertools.product(columns, repeat=2):
            p = make_array(F, theta, theta_star, varphi, phi)
            i, ii, iii = verdicts(p)
            assert i == ii == iii, (p.to_json(), (i, ii, iii))
            if i:
                valid.add(p)
            sequences += 1
    enumerated = list(enumerate_arrays(F, d))
    assert len(enumerated) == len(valid) and valid == set(enumerated), (
        len(valid), len(enumerated))
    return sequences, len(valid)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    field, diameter = parse_field(sys.argv[1]), int(sys.argv[2])
    sequences, valid = sweep(field, diameter)
    print(f"{sys.argv[1]}, d = {diameter}: {sequences} sequences, "
          f"{valid} valid, the three conditions agree on each")
