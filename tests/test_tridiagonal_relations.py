"""Terwilliger's tridiagonal relations as an oracle from outside the package.

For a Leonard pair (A, A*) with eigenvalue sequences theta and theta*, and
beta + 1 the common PA5 ratio, there are scalars gamma, gamma*, rho, rho*
such that

  [A, A^2 A* - beta A A* A + A* A^2 - gamma (A A* + A* A) - rho A*] = 0,
  [A*, A*^2 A - beta A* A A* + A A*^2 - gamma* (A* A + A A*) - rho* A] = 0,

with gamma = theta_{i-1} - beta theta_i + theta_{i+1} and rho =
theta_{i-1}^2 - beta theta_{i-1} theta_i + theta_i^2 - gamma (theta_{i-1} +
theta_i), both independent of i (Terwilliger, "Two relations that
generalize the q-Serre relations and the Dolan-Grady relations", 2001;
Terwilliger and Vidunas, J. Algebra Appl. 3, 2004).  They are checked on
the split-basis pair that `build` gives for sampled arrays of every
admissible family, and must fail once varphi_2 is changed.  No code of the
package computes these relations, so they test `build` and the samplers
from outside.
"""

import random
from dataclasses import replace

import pytest

from leonard import (
    Analysis,
    beta_plus_one,
    extension_field,
    generate,
    list_families,
    prime_field,
    rational_field,
    sample_params,
)

FIELDS = {
    "Q": rational_field(),
    "GF(101)": prime_field(101),
    "GF(9)": extension_field(3, 2, (1, 0, 1)),
}


def relation_holds(X, Y, theta, beta):
    """[X, X^2 Y - beta X Y X + Y X^2 - gamma (X Y + Y X) - rho Y] = 0, with
    gamma and rho read off theta_0, theta_1 and theta_2."""
    t0, t1, t2 = theta[:3]
    gamma = t0 - beta * t1 + t2
    rho = t0 * t0 - beta * t0 * t1 + t1 * t1 - gamma * (t0 + t1)
    XY, YX = X * Y, Y * X
    inner = (X * XY + YX * X - (X * YX).scale(beta)
             - (XY + YX).scale(gamma) - Y.scale(rho))
    return X * inner == inner * X


def relations_hold(p):
    m = Analysis(p).matrices
    beta = beta_plus_one(p) - p.field.one()
    return (relation_holds(m.A, m.Astar, p.theta, beta)
            and relation_holds(m.Astar, m.A, p.theta_star, beta))


def sampled_arrays(F):
    rng = random.Random(1)
    for d in range(3, 7):
        for family in list_families():
            fp = sample_params(family, d, F, rng)
            if fp is not None:
                yield family, generate(fp, F)


@pytest.mark.parametrize("label", list(FIELDS))
def test_tridiagonal_relations_hold_and_catch_a_changed_varphi(label):
    F = FIELDS[label]
    arrays = list(sampled_arrays(F))
    assert arrays
    for family, p in arrays:
        assert relations_hold(p), (family, p.d)
        varphi = (p.varphi[0], p.varphi[1] + F.one()) + p.varphi[2:]
        assert not relations_hold(replace(p, varphi=varphi)), (family, p.d)
