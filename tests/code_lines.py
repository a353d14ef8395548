"""Code lines per module of `src/leonard`, and their total.

    python tests/code_lines.py

A code line is a line of a module that is not blank, not a `#` comment and
not part of a module, class or function docstring (found with `ast`).  The
count is a size, not a gate: the ROADMAP's State section quotes it.

The module name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(HERE, os.pardir, "src", "leonard")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main() -> None:
    counts = {name[:-3]: code_lines(os.path.join(PACKAGE, name))
              for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:12} {n:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main()
