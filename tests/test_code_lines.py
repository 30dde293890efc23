"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
import textwrap
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def count(source: str) -> tuple[int, int]:
    return code_lines.count(textwrap.dedent(source).lstrip("\n"))


def test_docstrings_are_not_code():
    source = '''
        """Module docstring,
        over two lines."""

        class A:
            """Class docstring."""

            def f(self):
                """Function docstring,

                over three lines.
                """
                return 1


        async def g():
            """Async function docstring."""
            return 2
    '''
    # class A, def f, return 1, async def g, return 2
    assert count(source) == (5, 17)


def test_comments_and_blank_lines_are_not_code():
    source = '''
        # a comment

            # an indented comment
        x = 1
    '''
    assert count(source) == (1, 4)


def test_a_string_after_the_first_statement_is_code():
    source = '''
        x = 1
        """not a docstring"""

        def f():
            y = 2
            """not a docstring either,
            over two lines"""
    '''
    # x = 1, the module string, def f, y = 2, the two-line string
    assert count(source) == (6, 7)


def test_a_body_of_ellipsis_is_code():
    assert count("def f():\n    ...\n") == (2, 2)


def test_a_code_line_with_a_trailing_comment_is_code():
    assert count("x = 1  # one\n# two\n") == (1, 2)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a = tmp_path / "a.py"
    a.write_text('"""Doc."""\nx = 1\n')
    b = tmp_path / "b.py"
    b.write_text("# note\ny = 2\nz = 3\n")
    code_lines.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["code", "wc", "-l", "file"], ["1", "2", str(a)], ["2", "3", str(b)], ["3", "5", "total"]]
