"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
import subprocess
import textwrap
from pathlib import Path

import pytest

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


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com",
                    *args], check=True, capture_output=True)


def test_against_counts_code_lines_added_and_removed(tmp_path, monkeypatch, capsys):
    git(tmp_path, "init", "-q")
    (tmp_path / "kept.py").write_text('"""Doc."""\nx = 1\ny = 2\nz = 3\n')
    (tmp_path / "gone.py").write_text("a = 1\nb = 2\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    # One code line changed, one removed, a comment and a docstring line added.
    (tmp_path / "kept.py").write_text('"""Doc,\nlonger."""\n# note\nx = 1\ny = 20\n')
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new.py").write_text("w = 1\n")
    monkeypatch.chdir(tmp_path)
    code_lines.main(["--against", "HEAD", "kept.py", "new.py", "gone.py", "kept.py"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["code", "wc", "-l", "added", "removed", "file"],
        ["2", "5", "+1", "-2", "kept.py"],
        ["1", "1", "+1", "-0", "new.py"],
        ["0", "0", "+0", "-2", "gone.py"],
        ["3", "6", "+2", "-4", "total"]]


def test_against_rejects_an_unknown_revision(tmp_path, monkeypatch):
    git(tmp_path, "init", "-q")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        code_lines.main(["--against", "HEAD", "a.py"])
    assert "not a git revision here: HEAD" in str(exc.value)
