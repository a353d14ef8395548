"""A committed corpus of `leonard` outputs: one line per run, so a change
that claims byte-identical outputs can show it.

    python tests/cli_corpus.py               # compare with the committed file
    python tests/cli_corpus.py --regenerate  # rewrite the committed file

The inputs are seeded `sample_params` draws of every family over Q, GF(7)
and GF(4) at d = 1..6, each followed by a copy with 1 added to varphi_1
(which fails `validate`), then every array in `tests/fixtures`.  Each input
goes through `verify`, `matrices` and `poly-table`, run in-process through
`cli.main` with the array JSON on stdin.  A line of `fixtures/cli_corpus.tsv`
holds the argv (with the input's name in place of `-`), the exit code and
the sha256 of stdout and of stderr.  The comparison prints each line that
differs and exits 1; `test_cli_corpus.py` runs it in the tier-1 suite.

The module name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from dataclasses import replace

from leonard import generate, list_families, sample_params
from leonard.cli import dump_json, main, parse_field

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
CORPUS = os.path.join(FIXTURES, "cli_corpus.tsv")

FIELDS = ("rational", "prime:7", "ext:2:2:1,1,1")
DIAMETERS = range(1, 7)
COMMANDS = ("verify", "matrices", "poly-table")
HEADER = "argv\texit\tstdout_sha256\tstderr_sha256"


def inputs():
    """(name, array JSON text) for every input, in corpus order."""
    for spec in FIELDS:
        F = parse_field(spec)
        for family in list_families():
            for d in DIAMETERS:
                fp = sample_params(family, d, F, random.Random(f"cli-corpus/{spec}/{family}/{d}"))
                if fp is not None:
                    p = generate(fp, F)
                    broken = replace(p, varphi=(p.varphi[0] + F.one(),) + p.varphi[1:])
                    yield f"{family}/{spec}/d={d}", dump_json(p.to_json())
                    yield f"{family}/{spec}/d={d}/varphi_1+1", dump_json(broken.to_json())
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".json"):
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
                yield f"fixtures/{name}", f.read()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(command: str, text: str) -> tuple[int, str, str]:
    """cli.main([command, '-']) with text on stdin: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def corpus_lines() -> list[str]:
    lines = [HEADER]
    for name, text in inputs():
        for command in COMMANDS:
            code, out, err = run(command, text)
            lines.append(f"{command} {name}\t{code}\t{_sha(out)}\t{_sha(err)}")
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
