import inspect
import sys
from fractions import Fraction

import pytest

from mulprob.cli import main
from mulprob.dist import Dist, bind, flrn
from mulprob.ket import parse_dist

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDrawCommands:
    def test_mn_learning_recovers_the_input(self, capsys):
        code, out, _ = run(capsys, "mn", "--k", "3", "<1/3 a, 2/3 b>")
        assert code == 0
        drawn = parse_dist(out.strip())
        assert bind(drawn, lambda m: flrn(m)) == Dist({"a": F(1, 3), "b": F(2, 3)})

    def test_hg(self, capsys):
        code, out, _ = run(capsys, "hg", "--k", "2", "[2 a, 2 b]")
        assert code == 0
        assert out.strip() == "<1/6 [2 a], 2/3 [1 a, 1 b], 1/6 [2 b]>"

    def test_dd(self, capsys):
        code, out, _ = run(capsys, "dd", "[3 a, 2 b]")
        assert code == 0
        assert out.strip() == "<2/5 [3 a, 1 b], 3/5 [2 a, 2 b]>"

    def test_hg_overdraw_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "hg", "--k", "9", "[2 a]")
        assert code == 1
        assert "error" in err


class TestStructuralCommands:
    def test_arr(self, capsys):
        code, out, _ = run(capsys, "arr", "[1 a, 2 b]")
        assert code == 0
        assert out.strip() == "<1/3 (a,b,b), 1/3 (b,a,b), 1/3 (b,b,a)>"

    def test_acc(self, capsys):
        code, out, _ = run(capsys, "acc", "a", "a", "b", "a")
        assert code == 0
        assert out.strip() == "[3 a, 1 b]"

    def test_flrn(self, capsys):
        code, out, _ = run(capsys, "flrn", "[3 a, 1 b]")
        assert code == 0
        assert out.strip() == "<3/4 a, 1/4 b>"

    def test_mzip_worked_example(self, capsys):
        code, out, _ = run(capsys, "mzip", "[1 a, 2 b]", "[2 z0, 1 z1]")
        assert code == 0
        assert out.strip() == "<1/3 [1 (a,z1), 2 (b,z0)], 2/3 [1 (a,z0), 1 (b,z0), 1 (b,z1)]>"

    def test_pml_worked_example(self, capsys):
        code, out, _ = run(capsys, "pml", "[2 <1/3 a, 2/3 b>, 1 <3/4 a, 1/4 b>]")
        assert code == 0
        assert out.strip() == "<1/12 [3 a], 13/36 [2 a, 1 b], 4/9 [1 a, 2 b], 1/9 [3 b]>"


class TestEvidenceCommands:
    def test_validity(self, capsys):
        code, out, _ = run(capsys, "validity", "<1/2 a, 1/2 b>", "--pred", "(a:1, b:1/2)")
        assert code == 0
        assert out.strip() == "3/4"

    def test_update(self, capsys):
        code, out, _ = run(capsys, "update", "<1/3 a, 2/3 b>", "--pred", "(a:3/4, b:1/4)")
        assert code == 0
        assert out.strip() == "<3/5 a, 2/5 b>"

    def test_update_on_impossible_evidence(self, capsys):
        code, _, err = run(capsys, "update", "<1 a>", "--pred", "(a:0)")
        assert code == 1
        assert "validity" in err


class TestSampleCheck:
    def test_round_trip_agrees(self, capsys):
        code, out, _ = run(
            capsys,
            "sample-check",
            "<1/3 a, 2/3 b>",
            "--chan",
            "{a: <1/2 u, 1/2 v>, b: <1 u>}",
            "--k",
            "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "sample-check: OK"
        sampled = lines[0].split(None, 1)[1]
        direct = lines[1].split(None, 1)[1]
        assert sampled == direct


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "mn", "--k", "2", "<1/2 a, 1/3 b>")
        assert code == 2
        assert "parse error" in err

    def test_mzip_size_mismatch(self, capsys):
        code, _, err = run(capsys, "mzip", "[1 a]", "[2 z0]")
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize("argv", [
        ["acc", "(" * 2000 + "a"],
        ["flrn", "[1 " * 200 + "a" + "]" * 200],
    ])
    def test_deep_nesting_is_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: nesting deeper than 100 levels")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["laws", "--n-random", "1"],
        ["bogus"],
        [],
        ["mn", "<1 a>"],
        ["mn", "--k", "-1", "<1 a>"],
        ["hg", "[1 a]", "--k", "x"],
    ])
    def test_bad_command_line_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["mn", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["sample-check", "<1 a>", "--chan", "{b: <1 u>}", "--k", "1"],
         "error: support element [1 a] outside channel domain\n"),
        (["sample-check", "<1 (a,00)>", "--chan", "{b: <1 u>}", "--k", "1"],
         "error: support element [1 (a,00)] outside channel domain\n"),
        (["pml", "[2 <1/2 a, 1/2 b>, 1 [1 a]]"],
         "error: expected a multiset of distributions, found [1 a]\n"),
        (["pml", "[1 (0,00)]"],
         "error: expected a multiset of distributions, found (0,00)\n"),
    ], ids=["push-multiset", "push-pair", "pml-multiset", "pml-pair"])
    def test_values_in_messages_are_in_ket_notation(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message)

    def test_cell_budget_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("MULPROB_MAX_CELLS", "4")
        code, _, err = run(capsys, "arr", "[4 a, 4 b]")
        assert code == 1
        assert "cells" in err


def atoms(n):
    return [f"x{i}" for i in range(n)]


class TestWideInputs:
    """Enumerations walk iteratively: the stack does not grow with the size
    of the input or the number of its distinct elements."""

    @pytest.mark.parametrize("argv", [
        ["arr", "[1000 a]"],
        ["mn", "--k", "1", "<" + ", ".join(f"1/1500 {x}" for x in atoms(1500)) + ">"],
        ["hg", "--k", "1", "[" + ", ".join(f"1 {x}" for x in atoms(1500)) + "]"],
    ], ids=["arr", "mn", "hg"])
    def test_wide_input_succeeds(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("<")

    @pytest.fixture
    def shallow_stack(self):
        # mzip over many columns prints a table per column, each listing
        # every column; a capped stack keeps the case small.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        yield
        sys.setrecursionlimit(limit)

    def test_mzip_many_columns(self, capsys, shallow_stack):
        cols = "[" + ", ".join(f"1 {x}" for x in atoms(300)) + "]"
        code, out, err = run(capsys, "mzip", "[1 a, 299 b]", cols)
        assert (code, err) == (0, "")
        assert out.count("1/300 [") == 300


class TestLawsCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "laws", "--list")
        assert code == 0
        assert "acc-arr-id" in out
        assert "pml-tensor-mismatch" in out

    def test_single_law(self, capsys):
        code, out, _ = run(capsys, "laws", "--law", "flrn-mn", "--k", "2", "--random", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS")

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "laws", "--law", "nope")
        assert code == 1
        assert "unknown law" in err

    def test_expected_failures_keep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "laws", "--law", "mn-tensor-mismatch")
        assert code == 0
        assert out.splitlines()[0].startswith("EXPECTED-FAIL")

    def test_output_is_deterministic(self, capsys):
        args = ["laws", "--k", "1", "--l", "1", "--n", "2", "--seed", "9", "--random", "3"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)
        assert code1 == 0
