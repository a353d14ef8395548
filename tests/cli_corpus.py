"""A committed corpus of `leonard` outputs: one line per run, so a change
that claims byte-identical outputs can show it.

    python tests/cli_corpus.py               # compare with the committed file
    python tests/cli_corpus.py --regenerate  # rewrite the committed file

The inputs are seeded `sample_params` draws of every family over Q, GF(7)
and GF(4) at d = 1..6, each followed by a copy with 1 added to varphi_1
(which fails `validate`), then every array in `tests/fixtures`, then one
hand-written array at d = 0 over each of the three fields, then JSON that
is not an object and malformed copies of `kraw2.json` that must exit 2
(invalid JSON; an unknown key; a field spec that is not an object, has an
unknown kind, lacks `p`, has a modulus that is not a list, a non-prime or
too large p, or a reducible modulus; a `d` that is a string, negative or
past theta; a non-string entry, an entry that is not a literal of its
field, one of 5,001 digits; a key that is not a list; a sequence of the
wrong length), then copies of `qrac3.json` that fail PA1, PA2 on phi and
PA5.  Each input goes through `verify`, `validate`, `classify`, `matrices`,
`poly-table`, `weights` and `recurrence`, run in-process through
`cli.main` with the array JSON on stdin; a few go through `validate
--emit` or `poly-table --format text` as well.  Then come the runs that
take no array: `gen` with each draw's parameters as `--param` arguments,
`gen` runs that must fail (an unknown family or parameter, a missing,
repeated or malformed one, `--d 0`, a violated precondition, among them a
step and a doubled factor, a wrong characteristic, a malformed number in
the field spec), and `enumerate` over small fields with `--limit`, a
shard, `--budget 10`, malformed shards, `--field rational`, an unknown
field spec, `--limit -1`, `--d 0`, `--budget -1`, a non-prime or too large
p, the malformed field specs and the extension specs that `parse_field` or
`ExtensionField` refuses, and over fields far too large to list (GF(2^61 -
1), GF(1000003^2), GF(18446744073709551557)) with `--limit`, a shard and
`--budget 0`, alone and with a shard whose first theta lies 10^12 ranks
in.  A line of
`fixtures/cli_corpus.tsv` holds the argv (with the input's name in place
of `-`), the exit code and the sha256 of stdout and of stderr.  The
comparison prints each line that differs and exits 1; `test_cli_corpus.py`
runs it in the tier-1 suite.

The module name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import replace

from leonard import generate, list_families, make_array, sample_params
from leonard.cli import dump_json, main, parse_field

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
CORPUS = os.path.join(FIXTURES, "cli_corpus.tsv")

FIELDS = ("rational", "prime:7", "ext:2:2:1,1,1")
DIAMETERS = range(1, 7)
# field spec -> (theta_0, theta*_0) of the d = 0 array over that field
D0 = {"rational": ("1/2", "-3"), "prime:7": ("3", "5"), "ext:2:2:1,1,1": ("1+1*w", "0+1*w")}
COMMANDS = ("verify", "validate", "classify", "matrices", "poly-table", "weights",
            "recurrence")
# name -> the keys that replace or join those of kraw2.json
GF4 = {"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]}
MALFORMED = {
    "unknown-key": {"comment": "kraw2"},
    "field-without-p": {"field": {"kind": "prime"}},
    "non-string-entry": {"theta": [0, 1, 2]},
    "reducible-modulus": {"field": {"kind": "extension", "p": 2, "k": 2,
                                    "modulus": [1, 0, 1]}},
    "field-not-an-object": {"field": "rational"},
    "unknown-field-kind": {"field": {"kind": "complex"}},
    "modulus-not-a-list": {"field": {"kind": "extension", "p": 2, "k": 2, "modulus": 7}},
    "string-d": {"d": "2"},
    "characteristic-2^64": {"field": {"kind": "prime", "p": 2**64}},
    "non-prime-p": {"field": {"kind": "prime", "p": 9}},
    "non-prime-extension-p": {"field": {"kind": "extension", "p": 4, "k": 2,
                                        "modulus": [1, 1, 1]}},
    "non-residue-entry": {"field": {"kind": "prime", "p": 7}, "theta": ["1/2", "1", "2"]},
    "extension-entry-one-term": {"field": GF4, "theta": ["1", "0+1*w", "1+1*w"]},
    "extension-entry-bad-term": {"field": GF4, "theta": ["1+x", "0+1*w", "1+1*w"]},
    "extension-entry-term-out-of-place": {"field": GF4,
                                          "theta": ["1*w+1", "0+1*w", "1+1*w"]},
    "theta-not-a-list": {"theta": "0"},
    "d-past-theta": {"d": 3},
    "short-theta-star": {"theta_star": ["0", "1"]},
    "short-varphi": {"varphi": ["-4"]},
    "short-phi": {"phi": ["-2"]},
    "negative-d": {"d": -1},
    "5001-digit-entry": {"theta": ["9" * 5001, "1", "2"]},
}
# name -> the keys that replace those of qrac3.json: well-formed arrays that
# fail PA1, PA2 on phi, and PA5
INVALID = {
    "theta-repeats": {"theta": ["0", "0", "21/4", "105/8"]},
    "phi-zero": {"phi": ["-35/24", "0", "-35/24"]},
    "theta-off-pa5": {"theta": ["0", "3/2", "21/4", "13"]},
}
# runs on one input each: (argv with "-" for stdin, input name)
SINGLE_RUNS = (
    (("validate", "--emit", "-"), "fixtures/qrac3.json"),
    (("validate", "--emit", "-"), "invalid/theta-repeats"),
    (("poly-table", "--format", "text", "-"), "fixtures/qrac3.json"),
    (("poly-table", "--format", "text", "-"), "fixtures/ext3_4.json"),
    (("poly-table", "--format", "text", "-"), "d=0/prime:7"),
)
KRAW = ("gen", "krawtchouk", "--d", "2", "--field", "rational", "--param")
# field specs with a malformed number, which must exit 2
MALFORMED_FIELDS = ("prime:x", "prime:", "ext:2:x:1,1,1")
# extension specs that must exit 2, each with its own message: two parts
# after ext, and each ValueError of ExtensionField (degree below 2, degree
# past the maximum, a modulus of the wrong length, a modulus not monic)
BAD_EXTENSIONS = ("ext:2:2", "ext:2:1:1,1", "ext:2:9:1,0,0,0,0,0,0,0,0,1",
                  "ext:2:2:1,1", "ext:2:2:1,1,2")
# gen runs that must fail: exit 2 for malformed input, 1 for a violated
# precondition or a characteristic the family cannot have
GEN_FAILURES = (
    ("gen", "no-such-family", "--d", "2", "--field", "rational", "--param", "q=2"),
    KRAW + ("r=2", "s=1", "sstar=1", "theta0=0"),
    KRAW + ("r=2", "r=3", "s=1", "sstar=1", "theta0=0", "thetastar0=0"),
    KRAW + ("r=2", "s", "sstar=1", "theta0=0", "thetastar0=0"),
    KRAW + ("r=2", "s=1", "sstar=1", "theta0=0", "thetastar0=0", "q=2"),
    KRAW + ("r=2", "s=1/0", "sstar=1", "theta0=0", "thetastar0=0"),
    KRAW + ("r=0", "s=1", "sstar=1", "theta0=0", "thetastar0=0"),
    ("gen", "q-racah", "--d", "3", "--field", "rational", "--param", "q=2", "h=1",
     "hstar=1", "s=3", "sstar=5", "r1=2", "r2=5", "theta0=0", "thetastar0=0"),
    ("gen", "orphan", "--d", "3", "--field", "rational", "--param", "h=1", "hstar=1",
     "s=1", "sstar=1", "r=1", "theta0=0", "thetastar0=0"),
    ("gen", "krawtchouk", "--d", "0", "--field", "rational", "--param", "r=2", "s=1",
     "sstar=1", "theta0=0", "thetastar0=0"),
    ("gen", "hahn", "--d", "2", "--field", "rational", "--param", "hstar=1", "s=1",
     "sstar=1", "r=-1", "theta0=0", "thetastar0=0"),
    ("gen", "hahn", "--d", "2", "--field", "rational", "--param", "hstar=1", "s=1",
     "sstar=-3", "r=5", "theta0=0", "thetastar0=0"),
    ("gen", "q-hahn", "--d", "2", "--field", "rational", "--param", "q=2", "h=1",
     "hstar=1", "sstar=1", "r=1/2", "theta0=0", "thetastar0=0"),
) + tuple(KRAW[:5] + (spec, "--param", "r=2", "s=1", "sstar=1", "theta0=0",
                      "thetastar0=0") for spec in MALFORMED_FIELDS)
ENUMERATE = tuple(("enumerate",) + argv for argv in (
    ("--field", "prime:3", "--d", "1"),
    ("--field", "prime:5", "--d", "2", "--limit", "5"),
    ("--field", "ext:2:2:1,1,1", "--d", "3", "--limit", "5"),
    ("--field", "prime:7", "--d", "2", "--limit", "5", "--shard", "1:3"),
    ("--field", "prime:5", "--d", "3", "--budget", "10"),
    ("--field", "prime:2305843009213693951", "--d", "1", "--budget", "0"),
    ("--field", "prime:2305843009213693951", "--d", "1", "--budget", "0",
     "--shard", "1000000000000:2000000000000"),
    ("--field", "prime:2305843009213693951", "--d", "4", "--limit", "2"),
    ("--field", "ext:1000003:2:1,0,1", "--d", "3", "--limit", "2"),
    ("--field", "prime:18446744073709551557", "--d", "2", "--limit", "1",
     "--shard", "5:7"),
    ("--field", "prime:5", "--d", "2", "--shard", "1"),
    ("--field", "prime:5", "--d", "2", "--shard", "1:2:3"),
    ("--field", "prime:5", "--d", "2", "--shard", "3:2"),
    ("--field", "rational", "--d", "2"),
    ("--field", "complex", "--d", "1"),
    ("--field", "prime:5", "--d", "2", "--limit", "-1"),
    ("--field", "prime:5", "--d", "0"),
    ("--field", "prime:5", "--d", "2", "--budget", "-1"),
    ("--field", "prime:18446744073709551616", "--d", "1"),
    ("--field", "prime:9", "--d", "1"),
    ("--field", "ext:4:2:1,1,1", "--d", "1"),
) + tuple(("--field", spec, "--d", "2") for spec in MALFORMED_FIELDS)
  + tuple(("--field", spec, "--d", "1") for spec in BAD_EXTENSIONS))
HEADER = "argv\texit\tstdout_sha256\tstderr_sha256"


def draws():
    """(name, field spec, field, FamilyParams) for every seeded draw."""
    for spec in FIELDS:
        F = parse_field(spec)
        for family in list_families():
            for d in DIAMETERS:
                fp = sample_params(family, d, F, random.Random(f"cli-corpus/{spec}/{family}/{d}"))
                if fp is not None:
                    yield f"{family}/{spec}/d={d}", spec, F, fp


def inputs():
    """(name, array JSON text) for every input, in corpus order."""
    for name, _, F, fp in draws():
        p = generate(fp, F)
        broken = replace(p, varphi=(p.varphi[0] + F.one(),) + p.varphi[1:])
        yield name, dump_json(p.to_json())
        yield f"{name}/varphi_1+1", dump_json(broken.to_json())
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".json"):
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
                yield f"fixtures/{name}", f.read()
    for spec, (theta0, theta_star0) in D0.items():
        F = parse_field(spec)
        p = make_array(F, [F.parse(theta0)], [F.parse(theta_star0)], [], [])
        yield f"d=0/{spec}", dump_json(p.to_json())
    with open(os.path.join(FIXTURES, "kraw2.json"), encoding="utf-8") as f:
        text = f.read()
    yield "malformed/invalid-json", text[:len(text) // 2]
    yield "malformed/not-an-object", "[]\n"
    base = json.loads(text)
    for name, change in MALFORMED.items():
        yield f"malformed/{name}", dump_json({**base, **change})
    with open(os.path.join(FIXTURES, "qrac3.json"), encoding="utf-8") as f:
        base = json.load(f)
    for name, change in INVALID.items():
        yield f"invalid/{name}", dump_json({**base, **change})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def argv_runs():
    """The argv of every run that reads no stdin, in corpus order."""
    for _, spec, F, fp in draws():
        yield ("gen", fp.family, "--d", str(fp.d), "--field", spec, "--param",
               *(f"{k}={F.format(v)}" for k, v in fp.values.items()))
    yield from GEN_FAILURES
    yield from ENUMERATE


def run(argv, text: str = "") -> tuple[int, str, str]:
    """cli.main(argv) with text on stdin: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def corpus_lines() -> list[str]:
    lines = [HEADER]

    def add(key, code, out, err):
        lines.append(f"{key}\t{code}\t{_sha(out)}\t{_sha(err)}")

    texts = {}
    for name, text in inputs():
        texts[name] = text
        for command in COMMANDS:
            add(f"{command} {name}", *run([command, "-"], text))
    for argv, name in SINGLE_RUNS:
        add(" ".join(name if a == "-" else a for a in argv), *run(argv, texts[name]))
    for argv in argv_runs():
        add(" ".join(argv), *run(argv))
    return lines


def committed_lines() -> list[str]:
    with open(CORPUS, encoding="utf-8") as f:
        return f.read().splitlines()


def differences(got: list[str], want: list[str]) -> list[str]:
    """A readable line for each run whose line differs, is new or is gone."""
    key = lambda line: line.split("\t", 1)[0]
    got_by, want_by = {key(x): x for x in got}, {key(x): x for x in want}
    out = []
    for k in dict.fromkeys([*want_by, *got_by]):
        if got_by.get(k) != want_by.get(k):
            out.append(f"committed: {want_by.get(k)}\n      now: {got_by.get(k)}")
    return out


if __name__ == "__main__":
    args = sys.argv[1:]
    if args not in ([], ["--regenerate"]):
        sys.exit(__doc__)
    lines = corpus_lines()
    if args:
        with open(CORPUS, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines) - 1} runs to {CORPUS}")
        sys.exit(0)
    diff = differences(lines, committed_lines())
    for line in diff:
        print(line)
    print(f"{len(lines) - 1} runs, {len(diff)} differ from the committed corpus")
    sys.exit(1 if diff else 0)
