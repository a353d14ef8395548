import pytest

from leonard import (
    FamilyParams,
    SquareMatrix,
    extension_field,
    generate,
    make_array,
    prime_field,
    rational_field,
)

Q = rational_field()


def qarr(theta, theta_star, varphi, phi):
    """Build an array over Q from plain int/str literals."""
    conv = lambda xs: [Q.parse(str(x)) for x in xs]
    return make_array(Q, conv(theta), conv(theta_star), conv(varphi), conv(phi))


def dense_mul(x, y):
    """The schoolbook product, every entry the full sum of n terms started
    from zero: the oracle for SquareMatrix.__mul__, which skips zero terms."""
    F = x.field
    cols = list(zip(*y.rows))
    return SquareMatrix(F, x.n, tuple(
        tuple(sum((a * b for a, b in zip(row, col)), start=F.zero()) for col in cols)
        for row in x.rows))


def random_injective(F, n, rng):
    """n distinct random elements of F, in the order drawn."""
    values = []
    while len(values) < n:
        x = F.random_element(rng)
        if x not in values:
            values.append(x)
    return values


@pytest.fixture
def fix_d1():
    # smallest fixture: d = 1, f_1 = 1 + lambda, nu = 1/2
    return qarr([0, 1], [0, 1], [1], [2])


@pytest.fixture
def kraw2():
    # krawtchouk d = 2 with s = sstar = 1, r = 2
    return qarr([0, 1, 2], [0, 1, 2], [-4, -4], [-2, -2])


@pytest.fixture
def kraw3():
    # krawtchouk d = 3 with s = sstar = 1, r = 2
    return qarr([0, 1, 2, 3], [0, 1, 2, 3], [-6, -8, -6], [-3, -4, -3])


@pytest.fixture
def qrac3():
    # q-racah d = 3 with q = 2, base in Q
    vals = {name: Q.parse(text) for name, text in dict(
        q="2", h="1", hstar="1", s="1", sstar="1", r1="3", r2="16/3",
        theta0="0", thetastar0="0").items()}
    return generate(FamilyParams(family="q-racah", d=3, values=vals), Q)


@pytest.fixture
def gf4():
    return extension_field(2, 2, (1, 1, 1))


@pytest.fixture
def orphan3(gf4):
    w = gf4.generator()
    one = gf4.one()
    zero = gf4.zero()
    vals = {"h": one, "hstar": one, "s": w, "sstar": w, "r": w,
            "theta0": zero, "thetastar0": zero}
    return generate(FamilyParams(family="orphan", d=3, values=vals), gf4)


@pytest.fixture
def gf5():
    return prime_field(5)


@pytest.fixture
def gf7():
    return prime_field(7)


@pytest.fixture
def gf11():
    return prime_field(11)
