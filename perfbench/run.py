"""Benchmark of the leonard package: seeded workloads, end-to-end metrics
from untraced runs and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports leonard from src/ there and
keeps its generated inputs and span files under .perfbench_work/.  Without
src/leonard it exits with code 2 and prints no result.

Workloads (inputs from gen.py, checks in workloads.py):

  verify-Q      `leonard verify FILE` on arrays over Q of 12 families, d = 3, 6
  census-GF     enumerate + classify + regenerate every array over GF(5) d = 2,
                GF(5) d = 3 and GF(4) d = 3
  classify-ext  `leonard classify FILE` on arrays whose base q needs a
                quadratic extension of GF(2^4), GF(7^2), GF(101), GF(3^4) or
                GF(5^3), d = 3..6

--trace 0 repeats whole passes over the inputs, in one single-threaded
process, until at least S seconds have passed, and reports the END_TO_END
metrics.  The metric names are the same on every workload: ops_per_s is
verify_per_s, census_arrays_per_s or classify_per_s; small_d_ms_mean and
large_d_ms_mean are the mean latency of one operation on the items of small
and large diameter (verify: d = 3 | 6; census: d = 2 | 3; classify-ext:
d = 3, 4 | 5, 6).  Means, not medians: the item classes mix families of
different cost, and a median can fall in the gap between two of them (at
census d = 2 it does: 46.7 % of the arrays take half the time of the rest).  setup_s is the median of SETUP_SAMPLES fresh interpreters
running probe.py.  These times are scaled to a reference machine speed
measured alongside them (speed.py), because the machine's own speed drifts
more than the bounds allow.  A line before the JSON result prints the
unscaled values under the workload's own names.

--trace 1 runs exactly one pass untraced and one pass under tracer.Tracer,
so that its counts repeat exactly, and reports the PER_LAYER metrics plus the
field microbenchmark of fieldbench.py.  Layers a workload does not call read
0 there.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedMeter
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "small_d_ms_mean": "ms",
    "large_d_ms_mean": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The workload's own names for ops_per_s and the medians of the small-d and
# large-d operations, printed unscaled on the summary line.
ALIASES = {
    "verify-Q": ("verify_per_s", "verify_d3_ms_p50", "verify_d6_ms_p50"),
    "census-GF": ("census_arrays_per_s", "classify_d2_ms_p50", "classify_d3_ms_p50"),
    "classify-ext": ("classify_per_s", "classify_d34_ms_p50", "classify_d56_ms_p50"),
}

FIELD_LABELS = ("q", "gf5", "gf4", "gf3_8")

# Per-layer metric -> unit.  A name ending in .calls or .self_s is the call
# count or summed self time of that span, the *_ns metrics come from
# fieldbench.py, and the other counts from Tracer.counts.
PER_LAYER = {
    **{f"fields.ops.{k}": "count" for k in ("mul", "add", "inv", "eq")},
    **{f"fields.{op}_ns.{f}": "ns" for op in ("mul", "inv", "eq") for f in FIELD_LABELS},
    "fields.quadratic_roots.calls": "count",
    "fields.quadratic_roots.self_s": "s",
    "fields.splitting_field.calls": "count",
    "fields.embed_map.self_s": "s",
    "fields.make_field.self_s": "s",
    "parray.validate.calls": "count",
    "parray.validate.self_s": "s",
    "parray.complete_from_theta.calls": "count",
    "parray.complete_from_theta.self_s": "s",
    "parray.enumerate.self_s": "s",
    "parray.enumerate.hit_ratio": "ratio",
    "parray.base_candidates.self_s": "s",
    "splitmat.build.calls": "count",
    "splitmat.build.self_s": "s",
    "splitmat.matmul.calls": "count",
    "splitmat.inverse.calls": "count",
    "splitmat.verify_conjugation.self_s": "s",
    "splitmat.verify_leonard_conditions.self_s": "s",
    "splitmat.s_matrix.self_s": "s",
    "polys.corresponding_polys.calls": "count",
    "polys.corresponding_polys.self_s": "s",
    "polys.verify_proportionality.self_s": "s",
    "polys.endpoint_values.self_s": "s",
    "polys.duality_check.self_s": "s",
    "ortho.ortho_data.calls": "count",
    "ortho.verify_orthogonality.self_s": "s",
    "ortho.verify_nu_sums.self_s": "s",
    "recur.recurrence_coeffs.calls": "count",
    "recur.verify_three_term.self_s": "s",
    "recur.verify_difference.self_s": "s",
    "recur.verify_alt_formulas.self_s": "s",
    "families.generate.calls": "count",
    "families.generate.self_s": "s",
    "classify.classify.calls": "count",
    "classify.classify.self_s": "s",
    **{f"classify.case.{c}": "count" for c in ("I", "II", "III", "IV")},
    "cli.load_array.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(script: str, *args: str) -> str:
    """Run a perfbench script in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"{script} failed:\n{proc.stderr}")
    return proc.stdout


def unit_of(name: str) -> str:
    """Unit of a summary-line value, from its name."""
    for suffix, unit in (("_per_s", " 1/s"), ("_ms_p50", " ms"), ("_ms_p99", " ms"),
                         ("_mb", " MB"), ("_s", " s")):
        if name.endswith(suffix):
            return unit
    return ""


def ms_p50(results) -> float:
    return statistics.median(r.seconds for r in results) * 1000


def ms_mean(seconds) -> float:
    return statistics.mean(seconds) * 1000


def timed_run(wl, inputs: Path, seconds: int) -> tuple[int, int, dict, dict]:
    """Whole passes until `seconds` have passed; checks run afterwards."""
    setup = [json.loads(child("probe.py", "--workload", wl.name,
                              "--inputs", str(inputs)))
             for _ in range(SETUP_SAMPLES)]
    wl.set_up()
    meter = SpeedMeter()
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(meter))
        if time.perf_counter() - t0 >= seconds:
            break
    meter.sample()
    elapsed = time.perf_counter() - t0 - meter.sample_s
    failed = sum(wl.check(p) for p in passes)
    results = [r for p in passes for r in p]
    is_small = [r.item["d"] in wl.small_d for r in results]
    small = [r for r, s in zip(results, is_small) if s]
    large = [r for r, s in zip(results, is_small) if not s]
    metrics = {
        "ops_per_s": len(results) / meter.scaled_wall_s,
        "small_d_ms_mean": ms_mean(x for x, s in zip(meter.scaled, is_small) if s),
        "large_d_ms_mean": ms_mean(x for x, s in zip(meter.scaled, is_small) if not s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(x["scaled_s"] for x in setup),
    }
    named = dict(zip(ALIASES[wl.name], (len(results) / elapsed, ms_p50(small),
                                        ms_p50(large))))
    if wl.name != "verify-Q":
        named["classify_ms_p50"] = ms_p50(results)
    if wl.name == "census-GF":
        lat = [r.seconds * 1000 for r in results]
        named["classify_ms_p99"] = statistics.quantiles(lat, n=100)[98]
    named.update(setup_s=statistics.median(x["setup_s"] for x in setup),
                 peak_rss_mb=metrics["peak_rss_mb"], passes=len(passes),
                 measured_s=elapsed,
                 machine_slowdown=elapsed / meter.scaled_wall_s)
    return len(results), failed, metrics, named


def traced_run(wl, inputs: Path, seed: int) -> tuple[int, int, dict, dict]:
    """One untraced and one traced pass over the same inputs."""
    import fieldbench
    from tracer import Tracer

    wl.set_up()
    t0 = time.perf_counter()
    plain = wl.run_pass()
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced = wl.run_pass(tracer)
        traced_s = time.perf_counter() - t0
    tracer.write(inputs / "spans.tsv")
    failed = wl.check(plain) + wl.check(traced)

    spans, counts = tracer.summary(), tracer.counts
    metrics = fieldbench.measure(seed)
    for name in PER_LAYER:
        if name in metrics:
            continue
        span, _, what = name.rpartition(".")
        if what == "calls" and span in spans:
            metrics[name] = spans[span]["calls"]
        elif what == "self_s":
            metrics[name] = spans.get(span, {}).get("self_s", 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    tried = metrics["parray.complete_from_theta.calls"]
    metrics["parray.enumerate.hit_ratio"] = (
        counts["parray.enumerate.emitted"] / tried if tried else 0.0)
    metrics["trace.overhead"] = traced_s / untraced_s
    named = {"untraced_s": untraced_s, "traced_s": traced_s,
             "spans": len(tracer.names)}
    return len(plain) + len(traced), failed, metrics, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "leonard" / "__init__.py").is_file():
        die(f"no leonard package under {SRC}; run from the root of a checkout")
    if args.seconds < 1:
        die("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    inputs = WORK / f"{args.workload}-{args.seed}"
    child("gen.py", "--workload", args.workload, "--seed", str(args.seed),
          "--out", str(inputs))
    wl = WORKLOADS[args.workload](inputs)
    if args.trace:
        attempted, failed, metrics, named = traced_run(wl, inputs, args.seed)
        units = PER_LAYER
    else:
        attempted, failed, metrics, named = timed_run(wl, inputs, args.seconds)
        units = END_TO_END
    named.update(ops=attempted, failed_ops=failed)
    print(f"{wl.name} seed={args.seed} trace={args.trace}, unscaled: "
          + ", ".join(f"{k}={v:.6g}{unit_of(k)}" for k, v in named.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
