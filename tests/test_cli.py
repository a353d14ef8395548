"""Command line behaviour: output shapes, exit codes, round trips."""

import contextlib
import io
import json
import os
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import (FamilyParams, FieldElement, FieldSpec, embed_map, generate, make_field,
                     sample_params)
from leonard.classify import embed_array
from leonard.cli import _scoreboard, load_array, main
from conftest import Q, count_multiplications, kronecker_product

HERE = os.path.dirname(__file__)
KRAW2 = os.path.join(HERE, "fixtures", "kraw2.json")
QRAC3 = os.path.join(HERE, "fixtures", "qrac3.json")
ORPHAN3 = os.path.join(HERE, "fixtures", "orphan3.json")
EXT3_4 = os.path.join(HERE, "fixtures", "ext3_4.json")
EXT1000003_2 = os.path.join(HERE, "fixtures", "ext1000003_2.json")
EXT5_4 = os.path.join(HERE, "fixtures", "ext5_4.json")

SCOREBOARD = ["validate", "conjugation", "leonard-conditions",
              "proportionality", "endpoint-values", "duality",
              "orthogonality", "weight-sums", "three-term", "difference",
              "alt-recurrence", "transition-matrix"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes(capsys):
    code, out, _ = run(capsys, "validate", KRAW2)
    assert code == 0
    assert out.splitlines() == [f"PA{i} pass" for i in range(1, 6)]


def test_validate_reports_failures(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    obj["varphi"][0] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert any(line.startswith("PA2") and "fail" in line
               for line in out.splitlines())


def test_gen_matches_fixture_bytes(capsys):
    code, out, _ = run(capsys, "gen", "krawtchouk", "--d", "2",
                       "--field", "rational", "--param", "s=1", "sstar=1",
                       "r=2", "theta0=0", "thetastar0=0")
    assert code == 0
    assert out == open(KRAW2).read()


def test_gen_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "wilson", "--d", "2",
                       "--field", "rational")
    assert code == 2
    assert "wilson" in err


def test_gen_rejects_unknown_parameter(capsys):
    code, _, err = run(capsys, "gen", "krawtchouk", "--d", "2",
                       "--field", "rational", "--param", "zeta=1")
    assert code == 2


def test_gen_rejects_repeated_parameter(capsys):
    # s=5 after s=1 is bad input, not a silent override
    code, out, err = run(capsys, "gen", "krawtchouk", "--d", "2",
                         "--field", "rational", "--param", "s=1", "sstar=1",
                         "r=2", "theta0=0", "thetastar0=0", "s=5")
    assert (code, out) == (2, "")
    assert err == "bad input: --param s is given more than once\n"


def test_gen_precondition_failure_is_exit_1(capsys):
    code, _, err = run(capsys, "gen", "krawtchouk", "--d", "2",
                       "--field", "rational", "--param", "s=1", "sstar=1",
                       "r=0", "theta0=0", "thetastar0=0")
    assert code == 1
    assert "r != 0" in err


# Every operator of FieldElement: arithmetic, comparison, truth and inverse.
FIELD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
                   "__bool__", "inverse")


def test_gen_costs_linearly_many_field_operations(capsys, monkeypatch):
    # racah over GF(2^61 - 1): doubling d at most doubles the operator calls,
    # up to a margin; a pairwise PA1 check in the validation gen runs would
    # about quadruple them
    def operator_calls(d):
        calls = []
        for name in FIELD_OPERATORS:
            op = FieldElement.__dict__[name]
            monkeypatch.setattr(FieldElement, name,
                                lambda *args, op=op: calls.append(1) or op(*args))
        code, out, _ = run(capsys, "gen", "racah", "--d", str(d),
                           "--field", "prime:2305843009213693951", "--param", "h=1",
                           "hstar=1", "s=3", "sstar=5", "r1=2", f"r2={d + 7}",
                           "theta0=0", "thetastar0=0")
        monkeypatch.undo()
        assert code == 0 and json.loads(out)["d"] == d
        return len(calls)

    assert operator_calls(1000) <= 2.2 * operator_calls(500)


def test_gen_bad_field_spec(capsys):
    code, _, err = run(capsys, "gen", "krawtchouk", "--d", "2",
                       "--field", "galois:7", "--param", "s=1", "sstar=1",
                       "r=2", "theta0=0", "thetastar0=0")
    assert code == 2


def test_verify_scoreboard_lines(capsys):
    code, out, _ = run(capsys, "verify", QRAC3)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == SCOREBOARD
    assert all(line.endswith("pass") for line in lines)


def test_verify_orphan_skips_transition(capsys):
    code, out, _ = run(capsys, "verify", ORPHAN3)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "transition-matrix: skipped (base ±1)"
    assert all(line.endswith("pass") for line in lines[:-1])


def test_verify_below_d3_skips_transition(capsys):
    """gf3_2.json: a GF(3) array at d = 2.  Below d = 3 the transition
    check takes the field's first case-I base, and GF(3) has none: every
    nonzero element is 1 or -1."""
    code, out, _ = run(capsys, "verify", os.path.join(HERE, "fixtures", "gf3_2.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "transition-matrix: skipped (no in-field base)"
    assert all(line.endswith("pass") for line in lines[:-1])


def test_verify_never_stops_early(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    obj["phi"][0] = "-1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == SCOREBOARD
    assert "fail" in lines[0]
    assert all("skipped (array invalid)" in line for line in lines[1:])


def test_verify_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(open(KRAW2).read()))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0


def test_classify_output_shape(capsys):
    code, out, _ = run(capsys, "classify", QRAC3)
    assert code == 0
    w = json.loads(out)
    assert set(w) == {"case", "family", "parameters", "field_of_witness"}
    assert w["case"] == "I" and w["family"] == "q-racah"
    assert w["field_of_witness"] == {"kind": "rational"}
    assert w["parameters"]["values"]["q"] == "2"


def test_classify_orphan(capsys):
    code, out, _ = run(capsys, "classify", ORPHAN3)
    assert code == 0
    w = json.loads(out)
    assert w["case"] == "IV" and w["family"] == "orphan"


def test_classify_above_the_table_cap(capsys):
    # q lies only in GF(3^8), whose 6561 elements are above TABLE_ORDER_CAP
    code, out, _ = run(capsys, "classify", EXT3_4)
    assert code == 0
    w = json.loads(out)
    assert w["case"] == "I" and w["family"] == "q-racah"
    W = make_field(FieldSpec.from_json(w["field_of_witness"]))
    assert W.order() == 6561
    p = load_array(EXT3_4)
    again = generate(FamilyParams.from_json(w["parameters"]), W)
    assert again == embed_array(p, W, embed_map(p.field, W))


def test_classify_over_a_large_quadratic_extension(capsys):
    # q lies only in GF(1000003^4): its modulus comes from the binomial rule
    # (1000003 = 3 mod 4 leaves no irreducible x^4 + c), it multiplies by
    # its product written out for that modulus, which the Kronecker product
    # checks, and it inverts by Itoh-Tsujii
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", EXT1000003_2)
    assert time.perf_counter() - start < 10.0
    assert code == 0
    w = json.loads(out)
    assert w["case"] == "I" and w["family"] == "q-racah"
    assert w["field_of_witness"] == {"kind": "extension", "p": 1000003, "k": 4,
                                     "modulus": [1, 1, 0, 0, 1]}
    W = make_field(FieldSpec.from_json(w["field_of_witness"]))
    rng = random.Random("gf1000003^4")
    xs = [W.random_element(rng).value for _ in range(20)]
    assert all(W._mul(a, b) == kronecker_product(W, a, b) for a, b in zip(xs, xs[1:]))
    p = load_array(EXT1000003_2)
    again = generate(FamilyParams.from_json(w["parameters"]), W)
    assert again == embed_array(p, W, embed_map(p.field, W))


def test_classify_over_a_degree_eight_extension(capsys):
    # q lies only in GF(5^8), above the table cap, so classify splits the
    # modulus x^4 + 2 of GF(5^4) there to embed the array; the witness is
    # pinned byte for byte
    W = {"kind": "extension", "p": 5, "k": 8, "modulus": [2, 0, 0, 0, 0, 0, 0, 0, 1]}
    witness = {
        "case": "I",
        "family": "q-racah",
        "parameters": {"family": "q-racah", "d": 4, "field": W, "values": {
            "theta0": "4+0*w+1*w^2+0*w^3+3*w^4+0*w^5+1*w^6+0*w^7",
            "thetastar0": "4+0*w+3*w^2+0*w^3+1*w^4+0*w^5+3*w^6+0*w^7",
            "q": "0+1*w+2*w^2+1*w^3+4*w^4+0*w^5+4*w^6+0*w^7",
            "h": "3+0*w+2*w^2+1*w^3+3*w^4+2*w^5+3*w^6+3*w^7",
            "hstar": "0+2*w+4*w^2+1*w^3+3*w^4+3*w^5+3*w^6+4*w^7",
            "s": "1+0*w+4*w^2+2*w^3+2*w^4+2*w^5+3*w^6+1*w^7",
            "sstar": "4+0*w+2*w^2+2*w^3+1*w^4+0*w^5+1*w^6+1*w^7",
            "r1": "3+3*w+2*w^2+1*w^3+4*w^4+1*w^5+4*w^6+0*w^7",
            "r2": "4+3*w+2*w^2+3*w^3+0*w^4+4*w^5+3*w^6+3*w^7",
        }},
        "field_of_witness": W,
    }
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", EXT5_4)
    assert time.perf_counter() - start < 10.0
    assert (code, out, err) == (0, json.dumps(witness, indent=2) + "\n", "")
    p = load_array(EXT5_4)
    Wf = make_field(FieldSpec.from_json(W))
    again = generate(FamilyParams.from_json(witness["parameters"]), Wf)
    assert again == embed_array(p, Wf, embed_map(p.field, Wf))


def test_classify_invalid_array(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    obj["theta"][2] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1


def test_classify_at_d0_is_no_case_not_bad_input(capsys, tmp_path):
    # a d = 0 array validates, so no closed form fitting it is a failed
    # construction (exit 1), not malformed input (exit 2)
    target = tmp_path / "d0.json"
    target.write_text(json.dumps({"field": {"kind": "rational"}, "d": 0, "theta": ["1"],
                                  "theta_star": ["2"], "varphi": [], "phi": []}))
    assert run(capsys, "validate", str(target))[0] == 0
    assert run(capsys, "classify", str(target)) == (
        1, "", "classification needs d >= 1\n")


def test_poly_table_json(capsys):
    code, out, _ = run(capsys, "poly-table", KRAW2)
    assert code == 0
    table = json.loads(out)
    assert table["n"] == 3
    assert table["rows"][1] == ["1", "3/4", "1/2"]


def test_poly_table_text(capsys):
    code, out, _ = run(capsys, "poly-table", KRAW2, "--format", "text")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows[2] == ["1", "1/2", "1/4"]


def test_weights_output(capsys):
    code, out, _ = run(capsys, "weights", KRAW2)
    assert code == 0
    data = json.loads(out)
    assert data == {"k": ["1", "-4", "4"], "kstar": ["1", "-4", "4"],
                    "nu": "1"}


def test_recurrence_output(capsys):
    code, out, _ = run(capsys, "recurrence", KRAW2)
    assert code == 0
    data = json.loads(out)
    assert data["a"] == ["4", "1", "-2"]
    assert data["b"] == ["-4", "-2", "0"]
    assert data["c"] == ["0", "1", "2"]
    assert data["astar"] == data["a"]


def test_matrices_output(capsys):
    code, out, _ = run(capsys, "matrices", QRAC3)
    assert code == 0
    mats = json.loads(out)
    assert set(mats) == {"A", "B", "Astar", "Bstar", "T", "Tstar", "Tdown",
                         "D", "Ddown", "Z", "H", "Hstar", "G"}
    assert mats["G"]["rows"][0][0] == "1"


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "prime:3", "--d", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) > 0
    assert all(r["d"] == 1 for r in rows)


def test_enumerate_limit_and_shard(capsys):
    code, out, _ = run(capsys, "enumerate", "--field", "prime:5", "--d", "2",
                       "--limit", "4")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, shard_out, _ = run(capsys, "enumerate", "--field", "prime:3",
                             "--d", "1", "--shard", "0:2")
    code2, shard_out2, _ = run(capsys, "enumerate", "--field", "prime:3",
                               "--d", "1", "--shard", "1:2")
    full = set()
    for text in (shard_out, shard_out2):
        full.update(text.splitlines())
    code3, whole, _ = run(capsys, "enumerate", "--field", "prime:3", "--d", "1")
    assert full == set(whole.splitlines())


@pytest.mark.parametrize("shard", ["0:0", "3:2", "0:-1"])
def test_enumerate_bad_shard_is_exit_2(capsys, shard):
    code, out, err = run(capsys, "enumerate", "--field", "prime:3", "--d", "1",
                         f"--shard={shard}")
    assert (code, out) == (2, "")
    assert err.startswith("bad input: ") and "0 <= index < count" in err


@pytest.mark.parametrize("shard", ["1", "1:2:3", "a:2", "1:", ""])
def test_enumerate_malformed_shard_names_the_form(capsys, shard):
    code, out, err = run(capsys, "enumerate", "--field", "prime:5", "--d", "2",
                         f"--shard={shard}")
    assert (code, out) == (2, "")
    assert err == f"bad input: --shard takes INDEX:COUNT, got {shard!r}\n"


@pytest.mark.parametrize("command", [("enumerate", "--d", "2"),
                                     ("gen", "krawtchouk", "--d", "2")])
@pytest.mark.parametrize("spec", ["prime:x", "prime:", "ext:2:x:1,1,1",
                                  "ext:2:2:1,x,1"])
def test_malformed_field_number_names_the_form(capsys, command, spec):
    code, out, err = run(capsys, *command, "--field", spec)
    assert (code, out) == (2, "")
    assert err == ("bad input: --field takes rational | prime:p | "
                   f"ext:p:k:modulusCSV, got {spec!r}\n")


def test_enumerate_limit_zero_prints_nothing(capsys):
    assert run(capsys, "enumerate", "--field", "prime:5", "--d", "2",
               "--limit", "0") == (0, "", "")


def test_enumerate_negative_limit_is_exit_2(capsys):
    code, out, err = run(capsys, "enumerate", "--field", "prime:5", "--d", "2",
                         "--limit=-1")
    assert (code, out) == (2, "")
    assert err.startswith("bad input: ")


@pytest.mark.parametrize("field, d", [("prime:5", 2), ("prime:2", 3)])
def test_enumerate_negative_budget_is_exit_2(capsys, field, d):
    code, out, err = run(capsys, "enumerate", "--field", field, "--d", str(d),
                         "--budget=-2")
    assert (code, out) == (2, "")
    assert err == "bad input: budget must be at least 0, got -2\n"


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["prime:2", "prime:3", "ext:2:2:1,1,1",
                              "rational", "prime:4"]),
       d=st.integers(-2, 4), limit=st.integers(-2, 4) | st.none(),
       shard=st.tuples(st.integers(-2, 4), st.integers(-2, 4)) | st.none(),
       budget=st.integers(-2, 50))
def test_enumerate_arguments_never_raise(field, d, limit, shard, budget):
    argv = ["enumerate", f"--field={field}", f"--d={d}", f"--budget={budget}"]
    if limit is not None:
        argv.append(f"--limit={limit}")
    if shard is not None:
        argv.append(f"--shard={shard[0]}:{shard[1]}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0 and limit is not None and limit >= 0:
        assert len(out.getvalue().splitlines()) <= limit


def test_round_trip_bytes(capsys, tmp_path):
    for path in (KRAW2, QRAC3, ORPHAN3):
        code, out, err = run(capsys, "validate", "--emit", path)
        assert code == 0
        assert out == open(path).read()


def test_malformed_json_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{" )
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "bad input" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "classify", "does-not-exist.json")
    assert code == 2


def test_schema_violation_is_exit_2(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    del obj["phi"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


def test_length_mismatch_is_exit_2(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    obj["varphi"] = obj["varphi"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run(capsys, "gen", "krawtchouk", "--field", "rational")
    assert code == 2  # --d is required


SKIPPED_INVALID = "".join(f"{name}: skipped (array invalid)\n"
                          for name in SCOREBOARD[1:])


def edited(path, key=None, index=None, value=None):
    obj = json.load(open(path))
    if key is not None:
        obj[key][index] = value
    return obj


# validate groups its failures by condition: read index by index, PA4 at [1]
# would come between the two PA3 failures.
KRAW2_PHI1 = edited(KRAW2, "phi", 0, "-3")
KRAW2_PHI1_LINES = ("PA1 pass\n"
                    "PA2 pass\n"
                    "PA3 fail at [1]: varphi_1 = -4, expected -5\n"
                    "PA3 fail at [2]: varphi_2 = -4, expected -5\n"
                    "PA4 fail at [1]: phi_1 = -3, expected -2\n"
                    "PA5 pass\n")


@pytest.mark.parametrize("obj, code, expected", [
    (edited(KRAW2, "varphi", 0, "-3"), 1,
     "validate: fail (PA3 fail at [1]: varphi_1 = -3, expected -4; "
     "PA4 fail at [1]: phi_1 = -2, expected -1; "
     "PA4 fail at [2]: phi_2 = -2, expected -1)\n" + SKIPPED_INVALID),
    (edited(QRAC3, "theta_star", 3, "2"), 1,
     "validate: fail (PA3 fail at [3]: varphi_3 = -20125/192, expected -413/24; "
     "PA4 fail at [3]: phi_3 = -35/24, expected -871/48; "
     "PA5 fail at [2]: theta ratio 7/2 != theta* ratio 8/15)\n" + SKIPPED_INVALID),
    (edited(QRAC3), 0, "".join(f"{name}: pass\n" for name in SCOREBOARD)),
    (edited(ORPHAN3), 0,
     "".join(f"{name}: pass\n" for name in SCOREBOARD[:-1])
     + "transition-matrix: skipped (base ±1)\n"),
    ({"field": {"kind": "rational"}, "d": 0, "theta": ["1"],
      "theta_star": ["2"], "varphi": [], "phi": []}, 0,
     "".join(f"{name}: pass\n" for name in SCOREBOARD[:-2])
     + "alt-recurrence: skipped (no interior coefficients at d = 0)\n"
     + "transition-matrix: pass\n"),
    (KRAW2_PHI1, 1,
     "validate: fail (PA3 fail at [1]: varphi_1 = -4, expected -5; "
     "PA3 fail at [2]: varphi_2 = -4, expected -5; "
     "PA4 fail at [1]: phi_1 = -3, expected -2)\n" + SKIPPED_INVALID),
])
def test_verify_scoreboard_text_is_pinned(capsys, tmp_path, obj, code, expected):
    target = tmp_path / "array.json"
    target.write_text(json.dumps(obj))
    assert run(capsys, "verify", str(target)) == (code, expected, "")


def test_a_failing_check_prints_its_first_four_failures(capsys, monkeypatch):
    """A check with five failures prints the first four, joined by "; ", on
    its own line and verify exits 1; the other eleven lines do not change."""
    import leonard.splitmat
    from leonard.report import CheckReport

    _, before, _ = run(capsys, "verify", QRAC3)
    monkeypatch.setattr(leonard.splitmat, "verify_conjugation", lambda a: CheckReport(
        "conjugation", [f"failure {i}" for i in range(1, 6)]))
    code, out, err = run(capsys, "verify", QRAC3)
    want = before.splitlines()
    want[1] = "conjugation: fail (failure 1; failure 2; failure 3; failure 4)"
    assert (code, out.splitlines(), err) == (1, want, "")


def test_transition_matrix_fails_where_g_differs_from_the_closed_form(capsys, monkeypatch):
    import leonard.splitmat

    # the check reads the closed form through s_matrix's payload core
    closed_form = leonard.splitmat._closed_form
    monkeypatch.setattr(leonard.splitmat, "_closed_form",
                        lambda p, q, bp1: closed_form(p, q, bp1).transpose())
    code, out, _ = run(capsys, "verify", QRAC3)
    lines = out.splitlines()
    assert code == 1
    assert lines[-1] == "transition-matrix: fail (G differs from the closed form)"
    assert all(line.endswith("pass") for line in lines[:-1])


def test_validate_and_classify_report_pinned(capsys, tmp_path):
    target = tmp_path / "array.json"
    target.write_text(json.dumps(KRAW2_PHI1))
    assert run(capsys, "validate", str(target)) == (1, KRAW2_PHI1_LINES, "")
    assert run(capsys, "classify", str(target)) == (
        1, "", KRAW2_PHI1_LINES + "array fails validation; see report above\n")


def test_verify_derives_each_object_once(capsys, monkeypatch):
    import sys

    import leonard.ortho
    import leonard.polys
    import leonard.recur
    import leonard.splitmat

    calls = {}
    originals = [leonard.splitmat.build, leonard.polys.corresponding_polys,
                 leonard.ortho.ortho_data, leonard.recur.recurrence_coeffs,
                 leonard.splitmat.difference_table,
                 leonard.splitmat.prefix_products,
                 leonard.splitmat.split_products,
                 leonard.polys.proportionality_alphas,
                 leonard.splitmat.divided_differences,
                 leonard.recur.three_term_comparison,
                 leonard.recur.difference_comparison]
    for fn in originals:
        def counted(*args, fn=fn):
            calls[fn.__name__] += 1
            return fn(*args)
        calls[fn.__name__] = 0
        # rebind every module-level reference, wherever it was imported
        for name, module in list(sys.modules.items()):
            if (name == "leonard" or name.startswith("leonard.")) \
                    and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    code, out, _ = run(capsys, "verify", QRAC3)
    assert code == 0 and out.endswith("transition-matrix: pass\n")
    # The difference tables of theta and theta* once each, in the one
    # pair_products, which reads T, T*, Tdown and the products above each
    # theta*_i off them, as build, verify_alt_formulas and
    # verify_transition_matrix read their differences: before that, T, T*
    # and Tdown were one difference_products call each, and the products
    # above each theta*_i one one_sided_products call, each with its own
    # subtractions; 7 and 5 when build, polys, ortho and recur each formed
    # their own.  The
    # prefix products of varphi and of phi once each, in the one
    # split_products: 5 when build, polys and ortho each formed their own.
    # The alphas once, in Analysis.alphas: 2 when verify_proportionality and
    # endpoint_values each formed them.  No T^-1, since build reads G off
    # A G = G B: 1 when build formed G as T^-1 Z Tdown, 2 when
    # verify_leonard_conditions formed T*^-1 on the passing path too, and
    # it read E* A E* from V and V^-1 recurrences before that.  The
    # three-term and difference comparisons once each, read by their own
    # checks, by verify_leonard_conditions and (three-term) by
    # verify_orthogonality and verify_proportionality.  No P or Pdown on the
    # passing path, since every check that reads them reads their values
    # off T and T*: 1 when the comparisons, proportionality,
    # endpoint-values, duality and orthogonality read the table
    assert calls == {"build": 1, "corresponding_polys": 0, "ortho_data": 1,
                     "recurrence_coeffs": 1, "difference_table": 2,
                     "prefix_products": 2,
                     "split_products": 1, "proportionality_alphas": 1,
                     "divided_differences": 0, "three_term_comparison": 1,
                     "difference_comparison": 1}


def test_scoreboard_multiplications_at_d16():
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    p = generate(fp, Q)
    # 4,828 of them, counting payload products and the int terms of the
    # kernel and of the intertwining test: 9,022 when the comparisons,
    # proportionality, endpoint-values and orthogonality read P and Pdown,
    # formed by two kernel products, and orthogonality read the first row
    # of its Gram off P, 9,023 when the transition-matrix
    # check formed beta + 1 twice, 10,825 when build formed G as
    # T^-1 Z Tdown, by n inverses and a kernel product, as many as when
    # the sides of the conjugation, three-term and difference identities
    # were kernel products and scalings, and 18,711 when verify_leonard_conditions
    # formed its two blocks by products and verify_orthogonality the dense
    # row Gram on the passing path, and 19,440 when s_matrix took seven
    # products and an inverse per entry and the products of differences
    # started from a product by one.  Counting element products and kernel
    # terms only, as the counter did before the scalar chains ran on
    # payloads: 19,439, and 19,573 before that, 19,590 when
    # verify_proportionality and endpoint_values each formed the alphas,
    # 19,981 when verify_leonard_conditions read E* A E* from V and V^-1
    # recurrences too, 20,072 when build, polys and ortho each formed their
    # own prefix products of varphi and phi, and 21,840 when they and recur
    # each formed their own products of differences
    assert count_multiplications(lambda: _scoreboard(p)) <= 4_828


def test_scoreboard_kernel_calls_at_d16(monkeypatch):
    """The diagonal factors are scalings, not kernel products, on the
    passing path the Leonard blocks and the row Gram come from the
    recurrence comparisons, the conjugation, three-term, difference and
    proportionality identities form neither side, the endpoint values and
    the Gram's first row are read off T and T*, and G comes from its
    recurrence: no matrix product at all."""
    fp = sample_params("q-racah", 16, Q, random.Random("conjugation-cost"))
    p = generate(fp, Q)
    calls = []
    kernel = type(Q)._matmul
    monkeypatch.setattr(type(Q), "_matmul",
                        lambda F, x, y: calls.append(x) or kernel(F, x, y))
    assert _scoreboard(p)[1]
    # None: P and Pdown are formed only where a check fails.  2, P and
    # Pdown, when the checks that read them formed them on the passing
    # path; 3 when build formed G as T^-1 Z Tdown, before it
    # read G column by column off A G = G B; 7 when the two sides of the
    # conjugation, P J and J* P were kernel products, before
    # Field._intertwining_failures decided the three identities without
    # forming either side; 12 when
    # verify_leonard_conditions formed its blocks by four products and
    # verify_orthogonality the row Gram by one, and 17 when T D^-1 and
    # Tdown Ddown^-1 in corresponding_polys, X W in the Gram matrix, H P in
    # verify_three_term and P H* in verify_difference were kernel products
    # with a diagonal matrix
    assert len(calls) == 0


def test_scoreboard_elements_in_d(monkeypatch):
    """The layers of Analysis hold payloads.  From Analysis(p) through the
    11 checks (the scoreboard less validate), a q-Racah scoreboard over Q
    builds 13 FieldElements at d = 6 and at d = 16, all of them the
    coefficients that the transition-matrix check hands `quadratic_roots`
    and what the root finder builds: 32 when that check took beta + 1 and
    its guards on q on elements, and 186 and 396 when the products of
    differences, the prefix products, the alphas, the weights and the
    recurrence coefficients were held as elements.  Every element of Q is
    built by `_Fresh.__getitem__`."""
    from leonard import fields, validate

    built = 0

    def counted(self, value, fresh=fields._Fresh.__getitem__):
        nonlocal built
        built += 1
        return fresh(self, value)

    for d in (6, 16):
        fp = sample_params("q-racah", d, Q, random.Random("conjugation-cost"))
        p = generate(fp, Q)
        assert _scoreboard(p)[1]  # the first call imports the checks' modules
        with monkeypatch.context() as patch:
            patch.setattr(fields._Fresh, "__getitem__", counted)
            built = 0
            validate(p)
            in_validate, built = built, 0
            _scoreboard(p)
        assert built - in_validate <= 13, (d, built, in_validate)


@pytest.mark.parametrize("key, value, message", [
    ("theta", [0, 1, 2], "theta entries must be strings, got 0"),
    ("varphi", "-4,-4", "varphi must be a list of strings"),
    ("comment", "kraw2", "unknown key 'comment'"),
])
def test_array_file_schema_is_exit_2(capsys, tmp_path, key, value, message):
    obj = json.load(open(KRAW2))
    obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    for command in ("validate", "verify"):
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("bad input: ") and message in err


def test_zero_denominator_is_exit_2(capsys, tmp_path):
    obj = json.load(open(KRAW2))
    obj["theta"] = ["0", "1/0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    gen = ("gen", "krawtchouk", "--d", "2", "--field", "rational", "--param",
           "s=1/0", "sstar=1", "r=2", "theta0=0", "thetastar0=0")
    for argv in (("validate", str(bad)), gen):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "bad input: not a rational literal: '1/0'\n"


@pytest.mark.parametrize("key, value, message", [
    ("field", {"kind": "prime", "p": 7.9}, "p must be an integer, got 7.9"),
    ("field", {"kind": "prime", "p": True}, "p must be an integer, got True"),
    ("field", {"kind": "extension", "p": 3, "k": 2.0, "modulus": [1, 0, 1]},
     "k must be an integer, got 2.0"),
    ("field", {"kind": "extension", "p": 3, "k": 2, "modulus": [1, 0.5, 1]},
     "modulus entry must be an integer, got 0.5"),
    ("d", 1.7, "d must be an integer, got 1.7"),
    ("d", "2", "d must be an integer, got '2'"),
    ("field", {"kind": "prime", "p": "7"}, "p must be an integer, got '7'"),
])
def test_json_float_is_exit_2(capsys, tmp_path, key, value, message):
    obj = json.load(open(KRAW2))
    obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", "--emit", str(bad))
    assert (code, out) == (2, "")
    assert err == f"bad input: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("field", {"kind": "prime"}, "field spec is missing 'p'"),
    ("field", {"kind": "extension", "p": 3, "modulus": [1, 0, 1]},
     "field spec is missing 'k'"),
    ("field", {"kind": "extension", "p": 3, "k": 2},
     "field spec is missing 'modulus'"),
    ("field", {"kind": "extension", "p": 3, "k": 2, "modulus": 7},
     "modulus must be a list of integers"),
    ("field", {"kind": "extension", "p": 3, "k": 2, "modulus": "1,0,1"},
     "modulus must be a list of integers"),
    ("field", None, "array is missing 'field'"),
    ("d", None, "array is missing 'd'"),
    ("theta", None, "array is missing 'theta'"),
    ("phi", None, "array is missing 'phi'"),
])
def test_malformed_array_names_the_key(capsys, monkeypatch, key, value, message):
    obj = json.load(open(KRAW2))
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "validate", "-")
    assert (code, out) == (2, "")
    assert err == f"bad input: {message}\n"


def test_family_params_json_refuses_a_float_diameter():
    obj = {"family": "krawtchouk", "d": 2.5, "field": {"kind": "rational"},
           "values": {"r": "2", "s": "1", "sstar": "1", "theta0": "0",
                      "thetastar0": "0"}}
    with pytest.raises(ValueError, match="d must be an integer, got 2.5"):
        FamilyParams.from_json(obj)
    obj["d"] = 2
    assert FamilyParams.from_json(obj).d == 2


QRAC4_PARAMS = ("q=3", "h=1", "hstar=1", "s=5", "sstar=7", "r1=5", "r2=1701",
                "theta0=0", "thetastar0=0")

# `leonard classify` stdout for the q-Racah array of QRAC4_PARAMS at d = 4
# over GF(1000003), captured when quadratic_roots still scanned the field
QRAC4_GF1000003_CLASSIFY = """\
{
  "case": "I",
  "family": "q-racah",
  "parameters": {
    "family": "q-racah",
    "d": 4,
    "field": {
      "kind": "prime",
      "p": 1000003
    },
    "values": {
      "theta0": "0",
      "thetastar0": "0",
      "q": "3",
      "h": "1",
      "hstar": "1",
      "s": "5",
      "sstar": "7",
      "r1": "5",
      "r2": "1701"
    }
  },
  "field_of_witness": {
    "kind": "prime",
    "p": 1000003
  }
}
"""


def gen_qrac4(capsys, tmp_path, p):
    code, out, _ = run(capsys, "gen", "q-racah", "--d", "4", "--field",
                       f"prime:{p}", "--param", *QRAC4_PARAMS)
    assert code == 0
    path = tmp_path / "qrac4.json"
    path.write_text(out)
    return str(path)


def test_classify_large_prime_field_is_pinned_and_fast(capsys, tmp_path):
    path = gen_qrac4(capsys, tmp_path, 1000003)
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", path)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, QRAC4_GF1000003_CLASSIFY)


def test_classify_over_gf_10_18_plus_3(capsys, tmp_path):
    path = gen_qrac4(capsys, tmp_path, 10**18 + 3)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    w = json.loads(out)
    assert w["case"] == "I" and w["family"] == "q-racah"
    field = make_field(FieldSpec.from_json(w["field_of_witness"]))
    again = generate(FamilyParams.from_json(w["parameters"]), field)
    assert again.to_json() == json.loads(open(path).read())


def test_gen_near_the_characteristic_limit(capsys, monkeypatch):
    # an empty field cache, so that the primality test of p is timed too
    monkeypatch.setattr("leonard.fields._FIELD_CACHE", {})
    argv = ["gen", "krawtchouk", "--d", "3", "--param", "s=1", "sstar=1",
            "r=2", "theta0=0", "thetastar0=0"]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--field", "prime:1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["field"]["p"] == 10**18 + 3
    code, out, err = run(capsys, *argv, "--field", f"prime:{2**64 + 13}")
    assert (code, out) == (2, "")
    assert "below 2^64" in err


# `leonard gen` stderr for one violating parameter set per family, captured
# while every family still had its own hand-written builder
@pytest.mark.parametrize("family, d, field, params, message", [
    ("q-racah", 3, "rational", "q=2 h=1 hstar=1 s=1 sstar=1 r1=4 r2=4",
     "q-racah: requires s* q^2 / r1 != 1"),
    ("q-hahn", 3, "rational", "q=2 h=1 hstar=1 sstar=1/8 r=5",
     "q-hahn: requires s* q^3 != 1"),
    ("dual-q-hahn", 3, "rational", "q=2 h=1 hstar=1 s=1 r=4",
     "dual-q-hahn: requires s q^2 / r != 1"),
    ("quantum-q-krawtchouk", 3, "rational", "q=2 hstar=1 s=1 r=8",
     "quantum-q-krawtchouk: requires s q^3 / r != 1"),
    ("q-krawtchouk", 2, "rational", "q=3 h=1 hstar=1 sstar=1/9",
     "q-krawtchouk: requires s* q^2 != 1"),
    ("affine-q-krawtchouk", 3, "rational", "q=2 h=1 hstar=1 r=1/4",
     "affine-q-krawtchouk: requires r q^2 != 1"),
    ("dual-q-krawtchouk", 3, "prime:7", "q=3 h=1 hstar=1 s=2",
     "dual-q-krawtchouk: requires s q^4 != 1"),
    ("racah", 3, "rational", "h=1 hstar=1 s=1 sstar=1 r1=-2 r2=8",
     "racah: requires r1 != -2"),
    ("hahn", 3, "rational", "hstar=1 s=1 sstar=2 r=5",
     "hahn: requires s* - r != -3"),
    ("dual-hahn", 3, "rational", "h=1 s=1 sstar=1 r=3",
     "dual-hahn: requires r - s - d - 1 != -2"),
    ("krawtchouk", 2, "rational", "s=1 sstar=2 r=2",
     "krawtchouk: requires r != s s*"),
    ("bannai-ito", 3, "rational", "h=1 hstar=1 s=3 sstar=5 r1=-1 r2=-3",
     "bannai-ito: requires r1 != -1"),
    ("orphan", 3, "ext:2:2:1,1,1",
     "h=1+0*w hstar=1+0*w s=0+1*w sstar=1+1*w r=1+0*w",
     "orphan: requires r != s + s*"),
    # captured before r2, the diameter and the nonzero rule moved into the
    # rows of the family table
    ("q-racah", 3, "rational", "q=2 h=1 hstar=1 s=3 sstar=5 r1=2 r2=15",
     "q-racah: requires r1 r2 = s s* q^(d+1)"),
    ("racah", 3, "rational", "h=1 hstar=1 s=1 sstar=1 r1=1 r2=4",
     "racah: requires r1 + r2 = s + s* + d + 1"),
    ("bannai-ito", 4, "rational", "h=1 hstar=1 s=3 sstar=5 r1=2 r2=-4",
     "bannai-ito: requires r1 + r2 = -s - s* + d + 1"),
    ("orphan", 4, "ext:2:2:1,1,1",
     "h=1+0*w hstar=1+0*w s=0+1*w sstar=0+1*w r=0+1*w",
     "orphan: requires diameter 3"),
])
def test_gen_precondition_messages_are_pinned(capsys, family, d, field, params,
                                              message):
    zero = "0+0*w" if field.startswith("ext:") else "0"
    code, out, err = run(capsys, "gen", family, "--d", str(d), "--field", field,
                         "--param", *params.split(), f"theta0={zero}",
                         f"thetastar0={zero}")
    assert (code, out, err) == (1, "", message + "\n")


def test_cached_parser_gives_each_call_its_first_answer(capsys):
    """main builds its parser once per process; a call made after others
    must answer byte for byte as it does when it is the first call."""
    from leonard.cli import _build_parser

    calls = [
        ["verify", QRAC3],
        ["gen", "q-racah", "--field", "rational"],  # no --d: exit 2
        ["gen", "bannai-ito", "--d", "4", "--field", "rational", "--param",
         "h=1", "hstar=1", "s=3", "sstar=5", "r1=2", "r2=-5", "theta0=0",
         "thetastar0=0"],
        ["gen", "dual-q-krawtchouk", "--d", "4", "--field", "rational",
         "--param", "q=3", "h=1", "hstar=1", "s=2", "theta0=0",
         "thetastar0=0"],
        ["classify", QRAC3],
    ]
    first = []
    for argv in calls:
        _build_parser.cache_clear()
        first.append(run(capsys, *argv)[:2])
    assert [code for code, _ in first] == [0, 2, 0, 0, 0]
    assert first[2][1] != first[3][1]
    for _ in range(2):
        assert [run(capsys, *argv)[:2] for argv in calls] == first


def test_an_internal_error_is_a_traceback_not_bad_input(monkeypatch):
    """Exit 2 is decided by the exception's type alone: a ValueError that a
    check raises is a bug, and main lets it through."""
    import leonard.splitmat

    def internal(a):
        raise ValueError("internal")

    monkeypatch.setattr(leonard.splitmat, "verify_conjugation", internal)
    with pytest.raises(ValueError, match="^internal$"):
        main(["verify", QRAC3])


def test_output_past_the_interpreter_digit_limit(capsys, monkeypatch):
    """A krawtchouk array at d = 2 with a 2,200-digit r has weights of 4,400
    digits, past the 4,300 that str() converts; weights prints them."""
    code, array, err = run(capsys, "gen", "krawtchouk", "--d", "2", "--field", "rational",
                           "--param", "r=" + "3" * 2200, "s=1", "sstar=1", "theta0=0",
                           "thetastar0=0")
    assert (code, err) == (0, "")
    monkeypatch.setattr("sys.stdin", io.StringIO(array))
    code, out, err = run(capsys, "weights", "-")
    assert (code, err) == (0, "")
    assert max(len(n) for n in re.findall(r"\d+", out)) > 4300


def test_negative_d_is_named(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.load(open(KRAW2)), "d": -1}))
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out, err) == (2, "", "bad input: d must be at least 0, got -1\n")


@pytest.mark.parametrize("field, literal", [
    ({"kind": "rational"}, "{}"), ({"kind": "rational"}, "-1/{}"),
    ({"kind": "prime", "p": 7}, "{}"),
    ({"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]}, "1+{}*w")])
def test_a_literal_past_the_digit_limit_is_named(capsys, monkeypatch, field, literal):
    """A number of more than MAX_LITERAL_DIGITS digits in a literal is
    refused by its digit count in every field; one of 4,300 is taken."""
    def validate(digits):
        theta_star = "0+0*w" if field["kind"] == "extension" else "0"
        array = {"field": field, "d": 0, "theta": [literal.format("9" * digits)],
                 "theta_star": [theta_star], "varphi": [], "phi": []}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(array)))
        return run(capsys, "validate", "-")

    assert validate(4301) == (
        2, "", "bad input: a number in a literal may have at most 4300 digits, got 4301\n")
    assert validate(4300)[::2] == (0, "")


@pytest.mark.parametrize("stdin", [False, True])
def test_a_file_that_is_not_utf8_is_exit_2(capsys, monkeypatch, tmp_path, stdin):
    data = b'{"field": {"kind": "rational"}, "d": \xff}'
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        path = "-"
    else:
        path = tmp_path / "bad.json"
        path.write_bytes(data)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == ("bad input: 'utf-8' codec can't decode byte 0xff in position 37: "
                   "invalid start byte\n")


def test_json_nested_past_the_parser_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (2, "")
    assert err.startswith("bad input: maximum recursion depth exceeded")
