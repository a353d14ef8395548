"""Cost of one FieldElement operation: `*`, `inverse()` and `==` on Q, GF(5),
GF(4) and GF(3^8), in nanoseconds per call (loop overhead included).

Reported by the traced run as per-layer metrics only.
"""

from __future__ import annotations

import random
import statistics
import time

FIELDS = {
    "q": {"kind": "rational"},
    "gf5": {"kind": "prime", "p": 5},
    "gf4": {"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]},
    "gf3_8": {"kind": "extension", "p": 3, "k": 8,
              "modulus": [2, 0, 1, 0, 0, 0, 0, 0, 1]},
}
OPS = ("mul", "inv", "eq")


def _ns_per_op(fn, xs, ys, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(xs, ys)
        samples.append((time.perf_counter_ns() - t0) / len(xs))
    return statistics.median(samples)


def _mul(xs, ys):
    for x, y in zip(xs, ys):
        x * y


def _inv(xs, ys):
    for x in xs:
        x.inverse()


def _eq(xs, ys):
    for x, y in zip(xs, ys):
        x == y


def measure(seed: int, n: int = 2000, repeats: int = 7) -> dict[str, float]:
    """{"fields.mul_ns.q": ..., ...} for every op and field, on n operand
    pairs drawn from the seed; the median of `repeats` timed loops."""
    from leonard.fields import FieldSpec, make_field

    out = {}
    for label, spec in FIELDS.items():
        F = make_field(FieldSpec.from_json(spec))
        rng = random.Random(f"fields/{seed}/{label}")
        xs = [F.random_element(rng, nonzero=True) for _ in range(n)]
        ys = [F.random_element(rng, nonzero=True) for _ in range(n)]
        for op, fn in zip(OPS, (_mul, _inv, _eq)):
            fn(xs, ys)  # warm-up
            out[f"fields.{op}_ns.{label}"] = _ns_per_op(fn, xs, ys, repeats)
    return out
