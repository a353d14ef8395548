"""The benchmark workloads: set-up, one pass over the generated inputs, and
the checks that every output is right.

Each workload reads DIR/jobs.json written by gen.py.  run_pass() runs every
item once and returns one Result per operation, timing only the call into
the program; check() then counts the operations whose output is wrong.  All
leonard functions are looked up at call time, so a Tracer installed around
run_pass() sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# The scoreboard lines of `leonard verify`, in order.
SCOREBOARD = ("validate", "conjugation", "leonard-conditions", "proportionality",
              "endpoint-values", "duality", "orthogonality", "weight-sums",
              "three-term", "difference", "alt-recurrence", "transition-matrix")

# Exhaustive census per job, measured on the program this benchmark was
# written against: (case, family, order of the witness field) -> arrays.
CENSUS = {
    "GF(5) d=2": {("II", "krawtchouk", 5): 1200, ("II", "hahn", 5): 800,
                  ("II", "dual-hahn", 5): 800, ("II", "racah", 25): 3200},
    "GF(5) d=3": {("II", "krawtchouk", 5): 1200, ("III", "bannai-ito", 25): 3200,
                  ("I", "affine-q-krawtchouk", 5): 800,
                  ("I", "quantum-q-krawtchouk", 5): 800,
                  ("I", "q-racah", 25): 400},
    "GF(4) d=3": {("IV", "orphan", 4): 576},
}


def lib(module: str):
    return importlib.import_module(f"leonard.{module}")


@dataclass
class Result:
    item: dict
    seconds: float
    output: object


class Watch:
    """Told the id of the item being run and the time of each operation;
    tracer.Tracer and speed.SpeedMeter are watches."""

    item = ""

    def op_done(self, seconds: float) -> None:
        pass


def run_cli(argv: list[str]) -> tuple[float, tuple[int, str]]:
    """Seconds spent in leonard.cli.main, and its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = lib("cli").main(argv)
        dt = time.perf_counter() - t0
    return dt, (code, out.getvalue())


class Workload:
    name = ""
    # Diameters of the "small d" item class; the rest are "large d".
    small_d: tuple[int, ...] = ()

    def __init__(self, inputs: Path):
        self.inputs = Path(inputs)
        self.items = json.loads((self.inputs / "jobs.json").read_text())["items"]

    def set_up(self) -> None:
        """Make every field and run one untimed warm-up item per field."""
        raise NotImplementedError

    def run_pass(self, watch: Watch | None = None) -> list[Result]:
        raise NotImplementedError

    def check(self, results: list[Result]) -> int:
        """Number of operations of one pass whose output is wrong."""
        raise NotImplementedError


class CliWorkload(Workload):
    command = ""

    def path(self, item) -> str:
        return str(self.inputs / item["file"])

    def field_spec(self, item) -> dict:
        return json.loads((self.inputs / item["file"]).read_text())["field"]

    def set_up(self) -> None:
        fields = lib("fields")
        warmed = set()
        for item in self.items:
            spec = fields.FieldSpec.from_json(self.field_spec(item))
            fields.make_field(spec)
            if spec not in warmed:
                warmed.add(spec)
                run_cli([self.command, self.path(item)])

    def run_pass(self, watch: Watch | None = None) -> list[Result]:
        watch = watch or Watch()
        results = []
        for item in self.items:
            watch.item = item["id"]
            dt, out = run_cli([self.command, self.path(item)])
            results.append(Result(item, dt, out))
            watch.op_done(dt)
        return results

    def check(self, results: list[Result]) -> int:
        return sum(not self.ok(r.item, *r.output) for r in results)


class VerifyQ(CliWorkload):
    name = "verify-Q"
    command = "verify"
    small_d = (3,)

    def ok(self, item: dict, code: int, stdout: str) -> bool:
        """Exit 0 and the twelve scoreboard lines in order: every check
        passes, and transition-matrix reads as recorded at generation."""
        lines = stdout.splitlines()
        if code != 0 or [ln.split(":")[0] for ln in lines] != list(SCOREBOARD):
            return False
        want = [f"{name}: pass" for name in SCOREBOARD[:-1]]
        want.append(f"transition-matrix: {item['transition']}")
        return lines == want


class ClassifyExt(CliWorkload):
    name = "classify-ext"
    command = "classify"
    small_d = (3, 4)

    def ok(self, item: dict, code: int, stdout: str) -> bool:
        """Exit 0, case I, a witness field of the expected order, and the
        witness parameters regenerate the input over that field."""
        if code != 0:
            return False
        fields, families = lib("fields"), lib("families")
        try:
            out = json.loads(stdout)
            W = fields.make_field(fields.FieldSpec.from_json(out["field_of_witness"]))
            if out["case"] != item["case"] or W.order() != item["witness_order"]:
                return False
            p = lib("cli").load_array(self.path(item))
            params = families.FamilyParams.from_json(out["parameters"])
            regenerated = families.generate(params, W)
            lift = fields.embed_map(p.field, W)
        except (ValueError, KeyError, TypeError, lib("errors").LeonardError):
            return False
        return regenerated == lib("classify").embed_array(p, W, lift)


class CensusGF(Workload):
    name = "census-GF"
    small_d = (2,)

    def field(self, job):
        fields = lib("fields")
        return fields.make_field(fields.FieldSpec.from_json(job["field"]))

    @staticmethod
    def classify_one(p):
        """Classify and regenerate; (histogram key or None, regenerated ok)."""
        classify = lib("classify")
        try:
            w = classify.classify(p)
        except lib("errors").LeonardError:
            return None, False
        key = (w.case, w.family, w.field.order())
        try:
            regenerated = lib("families").generate(w.params, w.field)
        except lib("errors").LeonardError:
            return key, False
        return key, regenerated == classify.embed_array(p, w.field, w.embed)

    def set_up(self) -> None:
        for job in self.items:
            F = self.field(job)
            first = next(lib("parray").enumerate_arrays(F, job["d"], budget=None))
            self.classify_one(first)

    def run_pass(self, watch: Watch | None = None) -> list[Result]:
        """The jobs' enumerations run interleaved, each advanced in
        proportion to its census size, so that drift in the machine's speed
        reaches every job alike."""
        watch = watch or Watch()
        enumerate_arrays = lib("parray").enumerate_arrays
        streams = {job["id"]: enumerate(enumerate_arrays(self.field(job), job["d"],
                                                         budget=None))
                   for job in self.items}
        size = {name: sum(CENSUS[name].values()) for name in streams}
        done = dict.fromkeys(streams, 0)
        live = list(self.items)
        results = []
        while live:
            job = min(live, key=lambda j: done[j["id"]] / size[j["id"]])
            watch.item = job["id"]
            step = next(streams[job["id"]], None)
            if step is None:
                live.remove(job)
                continue
            n, p = step
            done[job["id"]] += 1
            watch.item = f"{job['id']}#{n}"
            t0 = time.perf_counter()
            out = self.classify_one(p)
            dt = time.perf_counter() - t0
            results.append(Result(job, dt, out))
            watch.op_done(dt)
        return results

    def check(self, results: list[Result]) -> int:
        """Arrays that failed to classify or regenerate, plus arrays that
        landed in the wrong (case, family, witness field) bucket or are
        missing from a job's census."""
        failed = sum(not ok for _, ok in (r.output for r in results))
        for job in self.items:
            got = Counter(r.output[0] for r in results if r.item is job)
            want = CENSUS[job["id"]]
            failed += sum(max(0, n - want.get(k, 0)) for k, n in got.items()
                          if k is not None)
            failed += max(0, sum(want.values()) - sum(got.values()))
        return failed


WORKLOADS = {w.name: w for w in (VerifyQ, CensusGF, ClassifyExt)}
