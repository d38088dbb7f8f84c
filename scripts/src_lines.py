#!/usr/bin/env python3
"""Count the lines of src/energia/*.py by kind, per file and in total.

A line inside the span of a module, class or function docstring is
docstring, blank lines in it included.  Any other line is blank when empty,
comment when it starts with '#' (after indentation), and code otherwise.
"""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "energia"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of tree's module, classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The lines of source by kind."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["comment" if text.startswith("#") else "code"] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    rows = []
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        rows.append((path.name, counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    rows.append(("total", total))
    print(f"{'file':<16} {'lines':>6} " + " ".join(f"{kind:>9}" for kind in KINDS))
    for name, counts in rows:
        cells = " ".join(f"{counts[kind]:>9}" for kind in KINDS)
        print(f"{name:<16} {sum(counts.values()):>6} {cells}")
    print(f"{sum(total.values())} = " + " + ".join(f"{total[kind]} {kind}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
