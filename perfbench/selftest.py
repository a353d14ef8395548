"""Tests of the benchmark itself (not collected by a plain `pytest` run):

    python3 -m pytest -q perfbench/selftest.py

They pin down the generator, the output checkers and the tracer against the
program as it stands; the trace expectations (9 builds per scoreboard,
6,400 arrays from 57,600 candidates, ...) describe today's algorithms.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SCOREBOARD, WORKLOADS  # noqa: E402


def make(workload: str, seed: int, out: Path, keep=lambda item: True):
    gen.generate_inputs(workload, seed, out)
    wl = WORKLOADS[workload](out)
    wl.items = [item for item in wl.items if keep(item)]
    return wl


def same_tree(a: Path, b: Path) -> bool:
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if files != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return False
    return all(filecmp.cmp(a / f, b / f, shallow=False) for f in files)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", ["verify-Q", "classify-ext"])
def test_generator_is_deterministic(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate_inputs(workload, seed, tmp_path / name)
    assert same_tree(tmp_path / "a", tmp_path / "b")
    assert not same_tree(tmp_path / "a", tmp_path / "c")
    arrays = lambda d: sorted((tmp_path / d / "arrays").iterdir())
    assert all(not filecmp.cmp(x, y, shallow=False)
               for x, y in zip(arrays("a"), arrays("c")))


def test_census_seed_orders_the_exhaustive_jobs(tmp_path):
    orders = set()
    for seed in range(6):
        wl = make("census-GF", seed, tmp_path / str(seed))
        assert sorted(j["id"] for j in wl.items) == sorted(gen.CENSUS_JOBS[i]["id"]
                                                          for i in range(3))
        orders.add(tuple(j["id"] for j in wl.items))
    assert len(orders) > 1


def test_item_classes(tmp_path):
    v = make("verify-Q", 1, tmp_path / "v")
    assert "orphan" not in {i["family"] for i in v.items}
    assert [sum(i["d"] == d for i in v.items) for d in (3, 6)] == [36, 12]
    c = make("classify-ext", 1, tmp_path / "c")
    assert sorted({(i["field"], i["d"]) for i in c.items}) == sorted(
        (label, d) for label, _ in gen.EXT_FIELDS for d in gen.EXT_DIAMETERS)
    assert {i["witness_order"] for i in c.items} == {256, 2401, 10201, 6561, 15625}


# ---------------------------------------------------------------------------
# checkers catch planted faults


def test_verify_checker_catches_a_flipped_line(tmp_path):
    wl = make("verify-Q", 3, tmp_path, keep=lambda i: i["d"] == 3
              and i["family"] in ("q-hahn", "krawtchouk"))
    results = wl.run_pass()
    assert wl.check(results) == 0
    for r in results:
        code, out = r.output
        lines = out.splitlines()
        assert [ln.split(":")[0] for ln in lines] == list(SCOREBOARD)
        flipped = out.replace("duality: pass", "duality: fail (planted)")
        assert wl.check([replace(r, output=(code, flipped))]) == 1
        swapped = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
        assert wl.check([replace(r, output=(code, swapped))]) == 1
        assert wl.check([replace(r, output=(1, out))]) == 1
        other = "skipped (base ±1)" if r.item["transition"] == "pass" else "pass"
        assert wl.check([replace(r, item={**r.item, "transition": other})]) == 1


def test_census_checker_catches_wrong_family_and_failed_regeneration(
        tmp_path, monkeypatch):
    wl = make("census-GF", 1, tmp_path, keep=lambda j: j["id"] == "GF(4) d=3")
    results = wl.run_pass()
    assert len(results) == 576 and wl.check(results) == 0
    wrong = list(results)
    wrong[5] = replace(wrong[5], output=(("IV", "q-racah", 4), True))
    assert wl.check(wrong) == 1
    assert wl.check(results[1:]) == 1
    unregenerated = list(results)
    unregenerated[9] = replace(unregenerated[9], output=(("IV", "orphan", 4), False))
    assert wl.check(unregenerated) == 1

    import leonard.families as families
    from leonard import d4_apply

    real = families.generate
    monkeypatch.setattr(families, "generate",
                        lambda fp, F: d4_apply(real(fp, F), ["down"]))
    assert wl.check(wl.run_pass()) == 576


def test_classify_checker_catches_wrong_witness(tmp_path):
    wl = make("classify-ext", 2, tmp_path,
              keep=lambda i: i["d"] == 3 and i["field"] in ("GF(2^4)", "GF(101)"))
    results = wl.run_pass()
    assert wl.check(results) == 0
    for r in results:
        code, out = r.output
        obj = json.loads(out)
        values = obj["parameters"]["values"]
        values["theta0"], values["thetastar0"] = values["thetastar0"], values["theta0"]
        if values["theta0"] != values["thetastar0"]:
            assert wl.check([replace(r, output=(code, json.dumps(obj)))]) == 1
        assert wl.check([replace(r, output=(code, out.replace('"I"', '"II"')))]) == 1
        assert wl.check([replace(r, item={**r.item, "witness_order": 7})]) == 1
        assert wl.check([replace(r, output=(1, ""))]) == 1


# ---------------------------------------------------------------------------
# tracer


def traced_pass(wl):
    wl.set_up()
    tracer = Tracer()
    with tracer:
        results = wl.run_pass(tracer)
    assert wl.check(results) == 0
    return tracer


def test_tracer_restores_the_program(tmp_path):
    from leonard import cli
    from leonard.fields import FieldElement

    before = (cli.main, FieldElement.__mul__, FieldElement.__radd__)
    with Tracer():
        assert cli.main is not before[0]
        assert FieldElement.__mul__ is not before[1]
    assert (cli.main, FieldElement.__mul__, FieldElement.__radd__) == before


def test_trace_counts_repeat_and_scoreboard_calls(tmp_path):
    wl = make("verify-Q", 5, tmp_path, keep=lambda i: i["d"] == 3
              and i["family"] in ("q-racah", "racah", "bannai-ito"))
    first, second = traced_pass(wl), traced_pass(wl)
    assert first.counts == second.counts and first.counts["fields.ops.mul"] > 0
    assert ({k: v["calls"] for k, v in first.summary().items()}
            == {k: v["calls"] for k, v in second.summary().items()})
    for item in wl.items:
        spans = first.summary(item["id"])
        assert spans["polys.corresponding_polys"]["calls"] == 6
        # the transition-matrix check builds once more when it runs
        want = 9 if item["transition"] == "pass" else 8
        assert spans["splitmat.build"]["calls"] == want
    assert any(item["transition"] == "pass" for item in wl.items)


def test_leonard_conditions_dominate_verify_at_d6(tmp_path):
    wl = make("verify-Q", 1, tmp_path, keep=lambda i: i["d"] == 6
              and i["family"] in ("q-racah", "hahn"))
    spans = traced_pass(wl).summary("-d6")
    top = max(spans, key=lambda name: spans[name]["self_s"])
    assert top == "splitmat.verify_leonard_conditions"


def test_enumeration_hit_ratio_at_gf5_d3():
    import leonard

    tracer = Tracer()
    with tracer:
        arrays = leonard.enumerate_arrays(leonard.prime_field(5), 3, budget=None)
        emitted = sum(1 for _ in arrays)
    assert emitted == tracer.counts["parray.enumerate.emitted"] == 6400
    assert tracer.summary()["parray.complete_from_theta"]["calls"] == 57600


def test_quadratic_roots_dominate_classify_ext(tmp_path):
    wl = make("classify-ext", 4, tmp_path, keep=lambda i: i["d"] == 5)
    spans = traced_pass(wl).summary()
    share = spans["fields.quadratic_roots"]["self_s"] / spans["classify.classify"]["total_s"]
    assert share > 0.85
    assert spans["classify.classify"]["calls"] == 5


# ---------------------------------------------------------------------------
# the benchmark definition


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-Q", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
