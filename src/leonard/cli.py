"""Command line surface: JSON in, JSON or scoreboard text out.

Exit codes: 0 when every requested check passes, 1 when a check fails or a
requested construction is impossible for the given scalars, 2 when the input
itself is malformed (bad JSON, bad field spec, unknown names).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Optional

from .errors import (
    IdentityViolated,
    LengthMismatch,
    LeonardError,
    NonPrimeModulus,
    ReducibleModulus,
)
from .fields import Field, FieldElement, extension_field, prime_field, rational_field
from .parray import (
    ParameterArray,
    array_from_json,
    enumerate_arrays,
    validate,
    validation_lines,
)
from .report import CheckReport

# Every command uses the modules above.  Each command imports the rest of
# what it runs when it runs, so that a process compiles only those modules.

OK, FAIL, BAD_INPUT = 0, 1, 2


def parse_field(text: str) -> Field:
    def number(s: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise ValueError("--field takes rational | prime:p | ext:p:k:modulusCSV, "
                             f"got {text!r}") from None

    if text == "rational":
        return rational_field()
    if text.startswith("prime:"):
        return prime_field(number(text.split(":", 1)[1]))
    if text.startswith("ext:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("extension field spec is ext:p:k:modulusCSV")
        p, k = number(parts[1]), number(parts[2])
        modulus = tuple(number(c) for c in parts[3].split(","))
        return extension_field(p, k, modulus)
    raise ValueError(f"unknown field spec {text!r}; "
                     "use rational | prime:p | ext:p:k:modulusCSV")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def load_array(path: str) -> ParameterArray:
    return array_from_json(json.loads(_read_text(path)))


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _line(name: str, status: str, detail: str = "") -> str:
    return f"{name}: {status} ({detail})" if detail else f"{name}: {status}"


def _report_line(name: str, report: CheckReport) -> str:
    if report.skipped:
        return _line(name, "skipped", report.skipped)
    if report.ok():
        return _line(name, "pass")
    return _line(name, "fail", "; ".join(report.failures[:4]))


def _scoreboard(p: ParameterArray) -> tuple[list[str], bool]:
    """Run every verification in a fixed order; never stop at a failure."""
    # Imported per call so that the names are looked up when the checks run.
    from .analysis import Analysis
    from .ortho import verify_nu_sums, verify_orthogonality
    from .polys import duality_check, endpoint_values, verify_proportionality
    from .recur import verify_alt_formulas, verify_difference, verify_three_term
    from .splitmat import (verify_conjugation, verify_leonard_conditions,
                           verify_transition_matrix)

    checks = (
        ("conjugation", verify_conjugation),
        ("leonard-conditions", verify_leonard_conditions),
        ("proportionality", verify_proportionality),
        ("endpoint-values", endpoint_values),
        ("duality", duality_check),
        ("orthogonality", verify_orthogonality),
        ("weight-sums", verify_nu_sums),
        ("three-term", verify_three_term),
        ("difference", verify_difference),
        ("alt-recurrence", verify_alt_formulas),
        ("transition-matrix", verify_transition_matrix),
    )
    rep = validate(p)
    if not rep.ok():
        lines = [_line("validate", "fail", "; ".join(rep.failures))]
        lines += [_line(name, "skipped", "array invalid") for name, _ in checks]
        return lines, False

    a = Analysis(p)
    reports = [(name, check(a)) for name, check in checks]
    lines = [_line("validate", "pass")]
    lines += [_report_line(name, r) for name, r in reports]
    return lines, all(r.ok() for _, r in reports)


def _require_valid(p: ParameterArray) -> None:
    rep = validate(p)
    if not rep.ok():
        for line in validation_lines(rep):
            print(line, file=sys.stderr)
        raise IdentityViolated("array fails validation; see report above")


def _valid_analysis(path: str):
    """The Analysis of the array in a file, after checking that it is valid."""
    from .analysis import Analysis

    p = load_array(path)
    _require_valid(p)
    return Analysis(p)


def cmd_validate(args) -> int:
    p = load_array(args.file)
    rep = validate(p)
    if args.emit:
        sys.stdout.write(dump_json(p.to_json()))
        for line in validation_lines(rep):
            print(line, file=sys.stderr)
    else:
        for line in validation_lines(rep):
            print(line)
    return OK if rep.ok() else FAIL


def cmd_gen(args) -> int:
    from .families import FamilyParams, family_param_names, generate

    field = parse_field(args.field)
    names = family_param_names(args.family)
    values = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param takes name=value, got {item!r}")
        name, text = item.split("=", 1)
        if name not in names:
            raise ValueError(f"{args.family} has no parameter {name!r}")
        if name in values:
            raise ValueError(f"--param {name} is given more than once")
        values[name] = field.parse(text)
    missing = set(names) - set(values)
    if missing:
        raise ValueError(f"missing parameters: {', '.join(sorted(missing))}")
    p = generate(FamilyParams(family=args.family, d=args.d, values=values), field)
    sys.stdout.write(dump_json(p.to_json()))
    return OK


def cmd_verify(args) -> int:
    p = load_array(args.file)
    lines, ok = _scoreboard(p)
    for line in lines:
        print(line)
    return OK if ok else FAIL


def cmd_classify(args) -> int:
    from .classify import classify

    p = load_array(args.file)
    _require_valid(p)
    w = classify(p)
    out = {
        "case": w.case,
        "family": w.family,
        "parameters": w.params.to_json(),
        "field_of_witness": w.field.spec.to_json(),
    }
    sys.stdout.write(dump_json(out))
    return OK


def cmd_poly_table(args) -> int:
    a = _valid_analysis(args.file)
    table, p = a.polys, a.p
    if args.format == "json":
        sys.stdout.write(dump_json(table.P.to_json()))
    else:
        cells = [[p.field.format(x) for x in row] for row in table.P.rows]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            print("  ".join(c.rjust(width) for c in row))
    return OK


# The analysis dumps: command -> (help, Analysis attribute, fields in print order).
_DUMPS = {
    "weights": ("emit orthogonality weights and nu", "ortho", ("k", "kstar", "nu")),
    "recurrence": ("emit recurrence and dual coefficients", "recurrence",
                   ("a", "b", "c", "astar", "bstar", "cstar")),
    "matrices": ("emit the split-basis matrix set", "matrices",
                 ("A", "B", "Astar", "Bstar", "T", "Tstar", "Tdown",
                  "D", "Ddown", "Z", "H", "Hstar", "G")),
}


def cmd_dump(args) -> int:
    """Print one Analysis object of a valid array as JSON: a tuple of elements
    as a list of strings, an element as a string, a matrix by its to_json."""
    a = _valid_analysis(args.file)
    _, attr, names = _DUMPS[args.command]
    obj, fmt = getattr(a, attr), a.p.field.format

    def dump(x):
        if isinstance(x, tuple):
            return [fmt(e) for e in x]
        return fmt(x) if isinstance(x, FieldElement) else x.to_json()

    sys.stdout.write(dump_json({name: dump(getattr(obj, name)) for name in names}))
    return OK


def cmd_enumerate(args) -> int:
    field = parse_field(args.field)
    shard = None
    if args.shard is not None:
        index, _, count = args.shard.partition(":")
        try:
            shard = (int(index), int(count))
        except ValueError:
            raise ValueError(f"--shard takes INDEX:COUNT, got {args.shard!r}") from None
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be at least 0, got {args.limit}")
    arrays = enumerate_arrays(field, args.d, budget=args.budget, shard=shard)
    for p in itertools.islice(arrays, args.limit):
        print(json.dumps(p.to_json(), separators=(",", ":")))
    return OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and each command's module globals are still looked
    up when the command runs."""
    parser = argparse.ArgumentParser(
        prog="leonard",
        description="Exact construction, verification, and classification "
                    "of parameter arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check PA1-PA5 on an array file")
    s.add_argument("file")
    s.add_argument("--emit", action="store_true",
                   help="print the canonical array JSON instead of the report")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("gen", help="instantiate a named family")
    s.add_argument("family")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--param", nargs="+", action="extend", default=None,
                   metavar="NAME=VALUE")
    s.set_defaults(fn=cmd_gen)

    s = sub.add_parser("verify", help="run the full verification scoreboard")
    s.add_argument("file")
    s.add_argument("--all", action="store_true",
                   help="accepted for symmetry; the full scoreboard always runs")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("classify", help="recover family scalars with a witness")
    s.add_argument("file")
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("poly-table", help="emit the evaluation matrix f_j(theta_i)")
    s.add_argument("file")
    s.add_argument("--format", choices=("json", "text"), default="json")
    s.set_defaults(fn=cmd_poly_table)

    for name, (help_text, _, _) in _DUMPS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("file")
        s.set_defaults(fn=cmd_dump)

    s = sub.add_parser("enumerate", help="stream every array over a finite field")
    s.add_argument("--field", required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--limit", type=int, default=None)
    s.add_argument("--budget", type=int, default=10_000_000,
                   help="(theta, theta*) pairs it may examine, and theta tuples "
                        "a shard skips, before it stops with exit 1; at least 0")
    s.add_argument("--shard", default=None, metavar="INDEX:COUNT")
    s.set_defaults(fn=cmd_enumerate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return BAD_INPUT if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except (NonPrimeModulus, ReducibleModulus, LengthMismatch, ValueError, KeyError,
            TypeError, OSError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return BAD_INPUT
    except LeonardError as e:
        print(str(e), file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
