"""Seeded input generator for the leonard benchmark.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes DIR/jobs.json and, for the workloads that drive the command line on
files, one parameter-array file per item under DIR/arrays/.  The same seed
gives the same bytes; the program under test only ever sees these files.

Workloads (see BENCHMARK.json for why each one exists):

* verify-Q: arrays over Q of the 12 families admissible over Q, drawn with
  sample_params: three per family at d = 3 and one at d = 6 (48 items).
* census-GF: the three exhaustive jobs GF(5) d = 2, GF(5) d = 3 and
  GF(4) d = 3.  They are exhaustive, so the seed only orders them.
* classify-ext: one array for each field of the ladder GF(2^4), GF(7^2),
  GF(101), GF(3^4), GF(5^3) at each d = 3..6 (20 items, in rounds that
  visit every field).  The base q of every array lies only in the quadratic
  extension of its field, and the split of the q-Racah r-quadratic is
  checked here, so classify never needs a second extension.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402
from leonard import (  # noqa: E402
    FieldSpec,
    characteristic_admissible,
    complete_from_theta,
    generate,
    list_families,
    make_field,
    rational_field,
    sample_params,
)

# d -> arrays per family; the cheap d = 3 class gets more draws.
VERIFY_DRAWS = {3: 3, 6: 1}

CENSUS_JOBS = (
    {"id": "GF(5) d=2", "field": {"kind": "prime", "p": 5}, "d": 2},
    {"id": "GF(5) d=3", "field": {"kind": "prime", "p": 5}, "d": 3},
    {"id": "GF(4) d=3",
     "field": {"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]},
     "d": 3},
)

# The field ladder of classify-ext; moduli are monic, low degree first.
EXT_FIELDS = (
    ("GF(2^4)", {"kind": "extension", "p": 2, "k": 4, "modulus": [1, 1, 0, 0, 1]}),
    ("GF(7^2)", {"kind": "extension", "p": 7, "k": 2, "modulus": [1, 0, 1]}),
    ("GF(101)", {"kind": "prime", "p": 101}),
    ("GF(3^4)", {"kind": "extension", "p": 3, "k": 4, "modulus": [2, 1, 0, 0, 1]}),
    ("GF(5^3)", {"kind": "extension", "p": 5, "k": 3, "modulus": [1, 1, 0, 1]}),
)
EXT_DIAMETERS = (3, 4, 5, 6)


def dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_array(out: Path, name: str, p) -> str:
    rel = f"arrays/{name}.json"
    (out / rel).write_text(json.dumps(p.to_json(), indent=2) + "\n")
    return rel


# ---------------------------------------------------------------------------
# verify-Q


def gen_verify(seed: int, out: Path) -> list[dict]:
    items = []
    for family in list_families():
        for d, draws in VERIFY_DRAWS.items():
            if not characteristic_admissible(family, d, rational_field()):
                continue
            for draw in range(draws):
                items.append(verify_item(seed, family, d, draw, len(items), out))
    return items


def verify_item(seed: int, family: str, d: int, draw: int, index: int,
                out: Path) -> dict:
    Q = rational_field()
    rng = random.Random(f"verify-Q/{seed}/{family}/{d}/{draw}")
    fp = sample_params(family, d, Q, rng)
    if fp is None:
        raise RuntimeError(f"no {family} parameters at d={d}")
    name = f"{index:02d}-{family}-d{d}"
    # Over Q only the q-families have a base other than +-1.
    expect = "pass" if "q" in fp.values else "skipped (base ±1)"
    return {"id": name, "file": write_array(out, name, generate(fp, Q)),
            "family": family, "d": d, "transition": expect}


# ---------------------------------------------------------------------------
# classify-ext
#
# Arithmetic in F[q] = F[x]/(x^2 - beta x + 1), the quadratic extension of a
# finite field F holding the base q.  An element a + b q is the pair (a, b).
# The conjugate of q is beta - q = 1/q, which gives the norm a^2 + ab beta + b^2.


class QuadExt:
    def __init__(self, F, beta):
        self.F, self.beta = F, beta
        self.one, self.q = (F.one(), F.zero()), (F.zero(), F.one())

    def lift(self, a):
        return (a, self.F.zero())

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c - bd, a * d + b * c + bd * self.beta)

    def norm(self, x):
        a, b = x
        return a * a + a * b * self.beta + b * b

    def inv(self, x):
        n = self.norm(x).inverse()
        a, b = x
        return ((a + b * self.beta) * n, -b * n)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, n):
        if n < 0:
            x, n = self.inv(x), -n
        r = self.one
        while n:
            if n & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            n >>= 1
        return r

    def is_zero(self, x):
        return not x[0] and not x[1]


def trace_to_prime(F, y):
    """Absolute trace of y from F = GF(2^k) down to GF(2)."""
    k = F.order().bit_length() - 1
    t, z = F.zero(), y
    for _ in range(k):
        t, z = t + z, z * z
    return t


def is_square(F, y) -> bool:
    """Euler's criterion in a finite field of odd characteristic."""
    return not y or y ** ((F.order() - 1) // 2) == F.one()


def irreducible_base_quadratic(F, beta) -> bool:
    """Whether x^2 - beta x + 1 has no root in F."""
    if F.characteristic() == 2:
        return bool(beta) and trace_to_prime(F, (beta * beta).inverse()) == F.one()
    return not is_square(F, beta * beta - 4)


def r_quadratic_splits(F, beta, p) -> bool:
    """Whether the q-Racah scalars r1, r2 of p lie in F[q].

    With theta_i = eta + mu q^i + h q^-i (and the same for theta*),
    tau = varphi_1 / ((q-1)(q^d-1)) + mu mu* + h h* q^(-1-d), and r1, r2 are
    the roots of x^2 - total x + product, total = tau q^d / (h h*),
    product = s s* q^(d+1) with s = mu / (h q), s* = mu* / (h* q).  False
    when one of mu, h, mu*, h* vanishes, which would not be q-Racah.
    """
    E = QuadExt(F, beta)
    q, one, d = E.q, E.one, p.d
    qinv = E.inv(q)

    def fit(seq):
        a = E.lift(seq[1] - seq[0])
        b = E.lift(seq[2] - seq[1])
        mu = E.div(E.sub(b, E.mul(a, qinv)), E.mul(E.sub(q, one), E.sub(q, qinv)))
        h = E.div(E.sub(b, E.mul(a, q)), E.mul(E.sub(qinv, one), E.sub(qinv, q)))
        return mu, h

    mu, h = fit(p.theta)
    mus, hs = fit(p.theta_star)
    if any(E.is_zero(x) for x in (mu, h, mus, hs)):
        return False
    frame = E.mul(E.sub(q, one), E.sub(E.pow(q, d), one))
    tau = E.add(E.add(E.div(E.lift(p.varphi[0]), frame), E.mul(mu, mus)),
                E.mul(E.mul(h, hs), E.pow(q, -1 - d)))
    hhs = E.mul(h, hs)
    total = E.div(E.mul(tau, E.pow(q, d)), hhs)
    s = E.div(mu, E.mul(h, q))
    ss = E.div(mus, E.mul(hs, q))
    product = E.mul(E.mul(s, ss), E.pow(q, d + 1))
    if F.characteristic() == 2:
        if E.is_zero(total):
            return True
        z = E.div(product, E.mul(total, total))
        return not trace_to_prime(F, z[1] * beta)  # trace F[q] -> F is b beta
    disc = E.sub(E.mul(total, total), E.mul(E.lift(F.from_int(4)), product))
    return is_square(F, E.norm(disc))


def ext_array(F, d: int, rng: random.Random):
    """A valid array over F whose base lies only in the quadratic extension
    and whose q-Racah witness lives there too."""
    while True:
        beta = F.random_element(rng)
        if not irreducible_base_quadratic(F, beta):
            continue
        seqs = []
        for _ in range(2):
            s = [F.random_element(rng) for _ in range(3)]
            for i in range(2, d):
                s.append(s[i - 2] - (beta + 1) * (s[i - 1] - s[i]))
            seqs.append(s)
        theta, theta_star = seqs
        if len(set(theta)) != d + 1 or len(set(theta_star)) != d + 1:
            continue
        p = complete_from_theta(F, theta, theta_star, F.random_element(rng, nonzero=True))
        if p is not None and r_quadratic_splits(F, beta, p):
            return p


def gen_classify_ext(seed: int, out: Path) -> list[dict]:
    # Each round visits every field, and each field meets every d once over
    # the rounds, so both d classes sample the machine across the whole pass.
    items = []
    for rnd in range(len(EXT_DIAMETERS)):
        for i, (label, spec) in enumerate(EXT_FIELDS):
            d = EXT_DIAMETERS[(rnd + i) % len(EXT_DIAMETERS)]
            F = make_field(FieldSpec.from_json(spec))
            p = ext_array(F, d, random.Random(f"classify-ext/{seed}/{label}/{d}"))
            name = f"{len(items):02d}-{label.replace('^', '_')}-d{d}"
            items.append({"id": name, "file": write_array(out, name, p),
                          "field": label, "d": d, "case": "I",
                          "witness_order": F.order() ** 2})
    return items


# ---------------------------------------------------------------------------


def generate_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of one workload for one seed into out."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    (out / "arrays").mkdir(parents=True, exist_ok=True)
    for old in (out / "arrays").glob("*.json"):
        old.unlink()
    if workload == "verify-Q":
        items = gen_verify(seed, out)
    elif workload == "census-GF":
        items = list(CENSUS_JOBS)
        random.Random(f"census-GF/{seed}").shuffle(items)
    else:
        items = gen_classify_ext(seed, out)
    (out / "jobs.json").write_text(dump({"workload": workload, "seed": seed,
                                         "items": items}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    generate_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
