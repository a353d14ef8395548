"""The paper's theorem on every sequence of a small finite field.

    python tests/sweep_theorem.py FIELD D            # the theorem and the Leonard pairs
    python tests/sweep_theorem.py FIELD D --leonard  # the Leonard pairs alone

FIELD is a field spec as `leonard` reads it (`prime:3`, `ext:2:2:1,1,1`).
For every theta and theta* without repeats and every nonzero varphi and phi
(every sequence satisfying PA1 and PA2), the theorem's three conditions must
agree, and the sequences satisfying them must be exactly the arrays that
`enumerate_arrays` lists.  No sampling and no enumerator: the valid arrays
are counted from the theorem's side.

The split pair (A, A*) of (theta, theta*, varphi) is a Leonard pair exactly
when some phi completes the triple to a parameter array (LS99), so
`verify_leonard_conditions` must pass on exactly the triples of the
enumerated arrays.  Both parts check every triple; `--leonard` skips the
theorem's part, which is the slow one.  Prints the number of sequences
swept and of valid arrays, then of triples and of Leonard pairs.

The module name does not start with test_, so pytest does not collect it;
`test_theorem.py` runs the small sizes, and CI steps run GF(4) at d = 2, and
the Leonard pairs alone of GF(4) at d = 3 and of GF(5) at d = 2.
`verify_leonard_conditions` reads its blocks off the recurrence where the
array passes the three-term and difference comparisons, and forms them by
products elsewhere.  Each triple is checked with phi = varphi, which
almost always fails the comparisons, and each triple of an enumerated array
again with that array's phi, which passes them: the verdicts must agree,
so the Leonard pairs do not depend on the route.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace

from leonard import Analysis, Field, enumerate_arrays, make_array, verify_leonard_conditions
from leonard.cli import parse_field
from test_theorem import verdicts


def sequences_of(F: Field, d: int) -> tuple[list, list]:
    """The theta (and theta*) without repeats, and the nonzero columns."""
    elements = list(F.elements())
    return (list(itertools.permutations(elements, d + 1)),
            list(itertools.product([x for x in elements if x], repeat=d)))


def sweep_leonard(F: Field, d: int, enumerated: list) -> tuple[int, int]:
    """Check that the Leonard pairs among every (theta, theta*, varphi) of
    diameter d over F are the triples of the enumerated arrays.  Returns the
    number of triples and of Leonard pairs."""
    eigenvalues, columns = sequences_of(F, d)
    completions = {(p.theta, p.theta_star, p.varphi): p.phi for p in enumerated}
    triples = 0
    pairs = set()
    for theta, theta_star in itertools.product(eigenvalues, repeat=2):
        for varphi in columns:
            # The verdict depends on theta, theta* and varphi alone.  With
            # phi = varphi almost every triple fails the recurrence
            # comparisons and the dense blocks decide; a triple of an
            # enumerated array is checked again with that array's phi, where
            # the blocks are read off the recurrence.  Both must agree.
            p = make_array(F, theta, theta_star, varphi, varphi)
            key = (p.theta, p.theta_star, p.varphi)
            arrays = [p] + ([replace(p, phi=completions[key])] if key in completions else [])
            verdicts = {verify_leonard_conditions(Analysis(q)).ok() for q in arrays}
            assert len(verdicts) == 1, p.to_json()
            if verdicts.pop():
                pairs.add(key)
            triples += 1
    want = set(completions)
    assert pairs == want, (len(pairs), len(want))
    return triples, len(pairs)


def sweep(F: Field, d: int) -> tuple[int, int, int, int]:
    """Check (i) = (ii) = (iii) on every PA1-PA2 sequence of diameter d
    over F, that the valid ones are the enumerated arrays, and that the
    Leonard pairs are their triples.  Returns the number of sequences, of
    valid arrays, of triples and of Leonard pairs."""
    eigenvalues, columns = sequences_of(F, d)
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
    return (sequences, len(valid)) + sweep_leonard(F, d, enumerated)


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) < 2 or args[2:] not in ([], ["--leonard"]):
        sys.exit(__doc__)
    field, diameter = parse_field(args[0]), int(args[1])
    if args[2:]:
        triples, pairs = sweep_leonard(field, diameter,
                                       list(enumerate_arrays(field, diameter)))
        print(f"{args[0]}, d = {diameter}: {triples} triples, {pairs} Leonard pairs, "
              "the triples of the enumerated arrays")
    else:
        sequences, valid, triples, pairs = sweep(field, diameter)
        print(f"{args[0]}, d = {diameter}: {sequences} sequences, {valid} valid, "
              f"the three conditions agree on each; {triples} triples, "
              f"{pairs} Leonard pairs, the triples of the valid arrays")
