"""Count the code lines of Python source files.

A code line is a non-blank line that is neither a comment-only line nor
inside a module, class or function docstring.  Docstrings are found with
``ast``, so a string that merely looks like one is still code.  Each file
is printed with its code lines and its ``wc -l`` line count, then the
totals.

    python3 tools/code_lines.py src/mulprob/*.py
"""

import ast
import sys


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


def count(source: str) -> tuple[int, int]:
    """Code lines and physical lines of one source text."""
    skip = docstring_lines(ast.parse(source))
    physical = source.splitlines()
    code = sum(1 for i, line in enumerate(physical, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return code, len(physical)


def main(paths: list[str]) -> None:
    total_code = total_wc = 0
    print(f"{'code':>6} {'wc -l':>6}  file")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            code, wc = count(f.read())
        total_code += code
        total_wc += wc
        print(f"{code:>6} {wc:>6}  {path}")
    print(f"{total_code:>6} {total_wc:>6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
