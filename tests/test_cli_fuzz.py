"""A fuzz of every subcommand of `leonard`: whatever the input, `cli.main`
returns 0, 1 or 2 and no exception escapes it, and an exit 2 comes with a
usage message or with a single `bad input:` line on stderr.

The array inputs are `sample_params` arrays with one entry changed,
malformed JSON, schema violations, field specs near their edges, bytes that
are not UTF-8 and deeply nested lists; the argv inputs are `gen` and
`enumerate` runs with `--param`, `--shard`, `--limit` and `--budget` values
near their edges.
"""

import contextlib
import functools
import io
import json
import random
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leonard import generate, list_families, sample_params
from leonard.cli import main, parse_field

ARRAY_COMMANDS = (["verify"], ["validate"], ["validate", "--emit"], ["classify"],
                  ["matrices"], ["poly-table"], ["poly-table", "--format", "text"],
                  ["weights"], ["recurrence"])
SEQUENCES = ("theta", "theta_star", "varphi", "phi")
LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "0+1*w", "1+1*w",
                     "1+0*w+0*w^2", "w", "1*w+1", "1e3", "0x10", "", " ", "+",
                     "9" * 4300, "9" * 4301, "1/" + "7" * 4301]),
    st.from_regex(r"[+-]?[0-9]{1,40}(/[0-9]{1,20})?", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}\+[0-9]{1,3}\*w", fullmatch=True),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6) | LITERALS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)
FIELD_SPECS = st.one_of(
    st.sampled_from([{"kind": "rational"}, {"kind": "prime", "p": 2},
                     {"kind": "prime", "p": 7}, {"kind": "prime", "p": 2**61 - 1},
                     {"kind": "extension", "p": 2, "k": 2, "modulus": [1, 1, 1]},
                     {"kind": "extension", "p": 3, "k": 2, "modulus": [1, 0, 1]}]),
    st.builds(lambda p: {"kind": "prime", "p": p}, st.sampled_from(
        [-7, 0, 1, 4, 9, 2**64 - 59, 2**64, 2**64 + 13, 10**40])),
    st.builds(lambda p, k, modulus: {"kind": "extension", "p": p, "k": k,
                                     "modulus": modulus},
              st.sampled_from([2, 3, 4, -2]), st.integers(-1, 9),
              st.lists(st.integers(-3, 3), max_size=10)),
)
FIELD_ARGS = st.sampled_from([
    "rational", "prime:2", "prime:3", "prime:7", "prime:4", "prime:-5", "prime:0",
    "prime:2305843009213693951", "prime:18446744073709551557",
    "prime:18446744073709551616", "prime:", "prime:x", "ext:2:2:1,1,1",
    "ext:2:2:1,0,1", "ext:3:2:1,0,1", "ext:2:1:1,1", "ext:2:9:1,0,0,0,0,0,0,0,0,1",
    "ext:2:2", "ext:2:2:1,1,x", "complex", ""])


FIELDS = ("rational", "prime:5", "prime:7", "ext:2:2:1,1,1")


@functools.cache
def draws() -> list:
    """(field spec, field, FamilyParams) of one sample_params draw of each
    family over four fields at d = 1..4."""
    out = []
    for spec in FIELDS:
        F = parse_field(spec)
        for family in list_families():
            for d in range(1, 5):
                fp = sample_params(family, d, F, random.Random(f"fuzz/{spec}/{family}/{d}"))
                if fp is not None:
                    out.append((spec, F, fp))
    return out


@functools.cache
def arrays() -> list[dict]:
    return [generate(fp, F).to_json() for _, F, fp in draws()]


@st.composite
def array_documents(draw) -> "str | bytes":
    """The text (or the bytes) of an array file that is probably not a
    valid array."""
    obj = dict(draw(st.sampled_from(arrays())))
    kind = draw(st.sampled_from(["none", "entry", "entry", "schema", "field", "json",
                                 "bytes", "nested"]))
    if kind == "entry":
        key = draw(st.sampled_from(SEQUENCES))
        seq = list(obj[key])
        if seq:
            seq[draw(st.integers(0, len(seq) - 1))] = draw(LITERALS)
        obj[key] = seq
    elif kind == "schema":
        key = draw(st.sampled_from(["field", "d", *SEQUENCES, "extra"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(JSON_VALUES)
    elif kind == "field":
        obj["field"] = draw(FIELD_SPECS)
        obj["d"] = draw(st.sampled_from([obj["d"], -1, 0, obj["d"] + 1]))
    text = json.dumps(obj)
    if kind == "json":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.text(max_size=3)) + text[cut + 1:]
    elif kind == "bytes":
        data = text.encode()
        cut = draw(st.integers(0, len(data)))
        return data[:cut] + draw(st.binary(min_size=1, max_size=3)) + data[cut:]
    elif kind == "nested":
        depth = draw(st.integers(1, 3000))
        nested = "[" * depth + "]" * depth
        text = nested if draw(st.booleans()) else text[:-1] + f', "theta": {nested}}}'
    return text


def check(argv: list[str], stdin: "str | bytes" = "") -> None:
    """main(argv) with stdin: exit 0, 1 or 2, and an exit 2 explained by a
    usage message or one `bad input:` line."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = (io.TextIOWrapper(io.BytesIO(stdin)) if isinstance(stdin, bytes)
                 else io.StringIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert "usage:" in err.getvalue() or (
            len(lines) == 1 and lines[0].startswith("bad input: ")), (argv, lines)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(ARRAY_COMMANDS), document=array_documents())
def test_array_commands_on_fuzzed_files(command, document):
    check(command + ["-"], document)


@st.composite
def gen_argvs(draw) -> list[str]:
    """A sample_params draw as gen arguments, with its family, diameter,
    field or one parameter changed, or none of them."""
    spec, F, fp = draw(st.sampled_from(draws()))
    params = [f"{name}={F.format(v)}" for name, v in fp.values.items()]
    family, d = fp.family, fp.d
    change = draw(st.sampled_from(["none", "family", "d", "field", "value", "drop",
                                   "add"]))
    if change == "family":
        family = draw(st.sampled_from(list_families() + ["no-such-family"]))
    elif change == "d":
        d = draw(st.integers(-1, 4))
    elif change == "field":
        spec = draw(FIELD_ARGS)
    elif change in ("value", "drop"):
        i = draw(st.integers(0, len(params) - 1))
        name = params[i].split("=")[0]
        params[i:i + 1] = [f"{name}={draw(LITERALS)}"] if change == "value" else []
    elif change == "add":
        params.append(draw(st.sampled_from(["s", "=1", "s==1", "zeta=1", "q=2"])))
    argv = ["gen", family, f"--d={d}", f"--field={spec}"]
    return argv + (["--param", *params] if params else [])


@st.composite
def enumerate_argvs(draw) -> list[str]:
    argv = ["enumerate", f"--field={draw(FIELD_ARGS)}", f"--d={draw(st.integers(-1, 3))}",
            f"--budget={draw(st.sampled_from([-1, 0, 1, 2, 50]))}"]
    # Always a limit: a pair over a large field has about |F| arrays, which
    # the budget, a count of pairs, does not bound.
    argv.append(f"--limit={draw(st.sampled_from([-1, 0, 1, 3]))}")
    shard = draw(st.none() | st.sampled_from(
        ["0:1", "1:1", "0:2", "1:2", "-1:2", "1:0", "0:-1", "a:b", "", ":", "1:",
         "1:2:3", " 1:2", "1_0:20", "0:99999999999999999999999"]))
    if shard is not None:
        argv.append(f"--shard={shard}")
    return argv


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(gen_argvs(), enumerate_argvs()))
def test_gen_and_enumerate_on_fuzzed_arguments(argv):
    check(argv)
