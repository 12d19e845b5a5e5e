"""Count the lines of each `src/sabrkit` module by kind.

    python3 tools/code_size.py CHECKOUT
    python3 tools/code_size.py PARENT CHANGE

For each module it prints the total, code, docstring, comment and blank
lines, and the totals over the package; with two checkouts, both sides
and the change of each count. A line is a docstring line if it lies in a
module, class or function docstring (its blank lines included), else a
code line if it holds any token but a comment (a line of a multi-line
string or bracket counts, and so does a line with a trailing comment),
else a comment line if it holds a comment, else blank. A module only one
side has counts as zero on the other. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
PACKAGE = Path("src") / "sabrkit"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_kinds(source: str) -> list[str]:
    """The kind of each line of one module's source: code, docstring,
    comment or blank."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return [
        "docstring" if n in docstring
        else "code" if n in code
        else "comment" if n in comment
        else "blank"
        for n in range(1, len(source.splitlines()) + 1)
    ]


def count(source: str) -> dict[str, int]:
    """{kind: lines} of one module's source, the kinds of KINDS."""
    kinds = line_kinds(source)
    return {"total": len(kinds), **{k: kinds.count(k) for k in KINDS[1:]}}


def package_counts(checkout: str | Path) -> dict[str, dict[str, int]]:
    """{module file name: counts} for every module of the checkout's
    package, in name order, then "TOTAL": the sums."""
    modules = sorted((Path(checkout) / PACKAGE).glob("*.py"))
    if not modules:
        raise FileNotFoundError(f"no modules under {Path(checkout) / PACKAGE}")
    result = {path.name: count(path.read_text(encoding="utf-8")) for path in modules}
    result["TOTAL"] = {k: sum(c[k] for c in result.values()) for k in KINDS}
    return result


def table(sides: list[dict[str, dict[str, int]]]) -> str:
    """One row per module and one for the totals: each kind's count, or
    with two sides, parent -> change (+delta)."""
    names = sorted(set().union(*sides) - {"TOTAL"}) + ["TOTAL"]
    zero = dict.fromkeys(KINDS, 0)
    rows = [["module", *KINDS]]
    for name in names:
        counts = [side.get(name, zero) for side in sides]
        if len(counts) == 1:
            rows.append([name, *(f"{counts[0][k]:,}" for k in KINDS)])
        else:
            a, b = counts
            rows.append([name, *(f"{a[k]:,} -> {b[k]:,} ({b[k] - a[k]:+,})" for k in KINDS)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT", help="one or two checkouts")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    try:
        sides = [package_counts(path) for path in args.checkouts]
    except FileNotFoundError as exc:
        parser.error(str(exc))
    print(table(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
