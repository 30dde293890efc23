"""Count the code lines of Python source files.

A code line is a non-blank line that is neither a comment-only line nor
inside a module, class or function docstring.  Docstrings are found with
``ast``, so a string that merely looks like one is still code.  Each file
is printed with its code lines and its ``wc -l`` line count, then the
totals.

    python3 tools/code_lines.py src/mulprob/*.py

With ``--against REV``, each file also gets the code lines added and
removed since the git revision ``REV``: its code lines are diffed, with
``difflib``, against those of ``git show REV:path``.  A file missing at
``REV`` counts as all added; a path named but missing from the worktree
counts as all removed, so a deleted file can be listed too.  Paths are
taken relative to the working directory.

    python3 tools/code_lines.py --against HEAD^ src/mulprob/*.py
"""

import argparse
import ast
import difflib
import os
import subprocess
import sys

# The widths of the columns: code lines, ``wc -l``, added and removed.
WIDTHS = (6, 6, 7, 7)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> list[str]:
    """The code lines of one source text, as written."""
    skip = docstring_lines(ast.parse(source))
    return [line for i, line in enumerate(source.splitlines(), 1)
            if i not in skip and line.strip() and not line.strip().startswith("#")]


def count(source: str) -> tuple[int, int]:
    """Code lines and physical lines of one source text."""
    return len(code_lines(source)), len(source.splitlines())


def delta(old: str, new: str) -> tuple[int, int]:
    """Code lines added and removed from the source ``old`` to ``new``."""
    a, b = code_lines(old), code_lines(new)
    added = removed = 0
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            removed += i2 - i1
            added += j2 - j1
    return added, removed


def at_revision(rev: str, path: str) -> str:
    """The text of ``path`` at the git revision ``rev``; empty when it has none."""
    shown = subprocess.run(["git", "show", f"{rev}:./{os.path.relpath(path)}"],
                           capture_output=True, text=True, encoding="utf-8")
    return shown.stdout if shown.returncode == 0 else ""


def is_revision(rev: str) -> bool:
    """Whether ``rev`` names a commit of the git repository here."""
    return subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                          capture_output=True).returncode == 0


def table_row(values: list[int], name: str) -> str:
    """Code lines, ``wc -l`` and, when given, the code lines added and removed."""
    cells = [str(v) for v in values[:2]] + [f"{sign}{v}" for sign, v in zip("+-", values[2:])]
    return " ".join(f"{c:>{w}}" for c, w in zip(cells, WIDTHS)) + f"  {name}"


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count the code lines of Python source files.")
    parser.add_argument("--against", metavar="REV",
                        help="also count the code lines added and removed since this git revision")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)
    rev = args.against
    if rev is not None and not is_revision(rev):
        sys.exit(f"code_lines.py: not a git revision here: {rev}")
    header = ["code", "wc -l"] + (["added", "removed"] if rev is not None else [])
    print(" ".join(f"{c:>{w}}" for c, w in zip(header, WIDTHS)) + "  file")
    totals = [0] * len(header)
    for path in dict.fromkeys(args.paths):
        source = ""
        if rev is None or os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                source = f.read()
        values = list(count(source))
        if rev is not None:
            values += delta(at_revision(rev, path), source)
        totals = [t + v for t, v in zip(totals, values)]
        print(table_row(values, path))
    print(table_row(totals, "total"))


if __name__ == "__main__":
    main(sys.argv[1:])
