import inspect
import io
import os
import re
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from mulprob import cli
from mulprob.cli import main
from mulprob.dist import Dist, bind, flrn
from mulprob.ket import parse_dist
from mulprob.laws import catalogue

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

    def test_sample_check_over_multisets(self, capsys):
        # A channel keyed by multisets, as a lifted channel prints.
        assert run(capsys, "sample-check", "<1/3 [1 a], 2/3 [2 b]>", "--chan",
                   "{[1 a]: <1/2 [1 u], 1/2 [1 v]>, [2 b]: <1 [2 u]>}", "--k", "2") == (
            0, "sampled:  <1/6 [1 u], 2/3 [2 u], 1/6 [1 v]>\n"
               "direct:   <1/6 [1 u], 2/3 [2 u], 1/6 [1 v]>\n"
               "sample-check: OK\n", "")


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
        ["acc", "\u0663"],
        ["flrn", "[\u0663 a]"],
        ["mn", "--k", "1", "<1/\u0662 a, 1/2 b>"],
    ], ids=["acc", "multiset", "distribution"])
    def test_non_ascii_digits_are_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: unexpected character")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [
        ["laws", "--n-random", "1"],
        ["bogus"],
        [],
        ["mn", "<1 a>"],
        ["mn", "--k", "-1", "<1 a>"],
        ["hg", "[1 a]", "--k", "x"],
        ["sample-check", "<1 a>", "--chan", "{a: <1 u>}", "--k", "0"],
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
         "error: support element a outside channel domain\n"),
        (["sample-check", "<1 (a,00)>", "--chan", "{b: <1 u>}", "--k", "1"],
         "error: support element (a,00) outside channel domain\n"),
        (["sample-check", "<1/2 a, 1/2 b>", "--chan", "{a: <1 u>}", "--k", "2"],
         "error: support element b outside channel domain\n"),
        (["sample-check", "<1 [1 a]>", "--chan", "{b: <1 u>}", "--k", "1"],
         "error: support element [1 a] outside channel domain\n"),
        (["pml", "[2 <1/2 a, 1/2 b>, 1 [1 a]]"],
         "error: expected a multiset of distributions, found [1 a], not a Dist\n"),
        (["pml", "[1 (0,00)]"],
         "error: expected a multiset of distributions, found (0,00), not a Dist\n"),
        (["validity", "<1/2 (a,b), 1/2 b>", "--pred", "(b:1)"],
         "error: predicate not defined at (a,b)\n"),
        (["update", "<1/2 [1 a], 1/2 b>", "--pred", "(b:1)"],
         "error: predicate not defined at [1 a]\n"),
    ], ids=["push-atom", "push-pair", "push-second-atom", "push-multiset", "pml-multiset",
            "pml-pair", "predicate-pair", "predicate-multiset"])
    def test_values_in_messages_are_in_ket_notation(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message)

    @pytest.fixture
    def digit_limit(self):
        # The interpreter's default limit on converting ints to and from text.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(limit)

    def test_number_past_the_digit_limit_is_a_parse_error(self, capsys, digit_limit):
        code, out, err = run(capsys, "flrn", "[1" + "0" * 4400 + " a]")
        assert (code, out) == (2, "")
        assert err == ("parse error: number of 4401 digits, more than the limit of 4300 "
                       "(at position 1)\n")

    def test_weight_sum_past_the_digit_limit_is_a_parse_error(self, capsys, digit_limit):
        # Each weight prints, but their sum has a 6,000-digit denominator.
        code, out, err = run(capsys, "mn", "--k", "1", f"<1/{'7' * 3000} a, 1/{'3' * 2999}1 b>")
        assert (code, out) == (2, "")
        assert err == ("parse error: weights sum to a fraction of 3001 digits over 6000 digits, "
                       "not 1 (at position 0)\n")

    def test_result_past_the_digit_limit_is_one_error_line(self, capsys, digit_limit):
        # 2,201 draws are well inside the cell budget, but 97**2200, a
        # denominator of the result, has 4,371 digits.
        code, out, err = run(capsys, "mn", "--k", "2200", "<1/97 a, 96/97 b>")
        assert (code, out) == (1, "")
        assert err == ("error: the result has a number of more than 4300 digits, "
                       "the interpreter's limit for printing one\n")

    def test_cell_budget_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("MULPROB_MAX_CELLS", "4")
        code, _, err = run(capsys, "arr", "[4 a, 4 b]")
        assert code == 1
        assert "cells" in err

    def test_permutation_oracle_trips_the_budget_in_the_law_sweep(self, capsys, monkeypatch):
        # The oracle would list 5! permutations of each length-5 sequence;
        # the law fails at that size with one witness line.
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        code, out, _ = run(capsys, "laws", "--k", "12", "--law", "arr-acc-perm")
        assert code == 1
        witness = out.splitlines()[1].strip()
        assert witness == ("raised ResourceLimitError: permutations of a length-5 sequence "
                           "needs 120 cells, exceeding the limit of 100 "
                           "(set MULPROB_MAX_CELLS to raise it)")


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
        assert out == LAWS_LIST.read_text()

    def test_single_law(self, capsys):
        code, out, _ = run(capsys, "laws", "--law", "flrn-mn", "--k", "2", "--random", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS")

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "laws", "--law", "nope")
        assert code == 1
        assert "unknown law" in err

    def test_one_atom_space_exits_zero(self, capsys):
        code, out, _ = run(capsys, "laws", "--x-size", "1")
        assert code == 0
        assert out.splitlines()[-1] == "summary: 51 pass, 2 expected-fail, 0 fail"

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


class TestLargeDrawSizes:
    """A draw's multiset coefficient is a product of binomials over its own
    counts, so a size-k draw from a point mass does not compute k!, and
    neither does the zip of two size-k multisets with one table."""

    @pytest.mark.parametrize("argv, expected", [
        (["mn", "--k", "1000000", "<1 a>"], "<1 [1000000 a]>\n"),
        (["sample-check", "<1 a>", "--chan", "{a: <1 u>}", "--k", "1000000"],
         "sampled:  <1 u>\ndirect:   <1 u>\nsample-check: OK\n"),
    ], ids=["mn", "sample-check"])
    def test_point_mass_draws_are_cheap(self, capsys, argv, expected):
        start = time.process_time()
        assert run(capsys, *argv) == (0, expected, "")
        # k! for k = 10**6 alone takes several seconds.
        assert time.process_time() - start < 2

    def test_single_table_zip_is_cheap(self, capsys):
        start = time.process_time()
        assert run(capsys, "mzip", "[300000 a]", "[300000 b]") == (0, "<1 [300000 (a,b)]>\n", "")
        # Squaring 300000! and dividing by the margins' factorials took
        # about ten seconds.
        assert time.process_time() - start < 2


README = Path(__file__).resolve().parent.parent / "README.md"
HELP = Path(__file__).resolve().parent / "data" / "cli_help.txt"
LAWS_LIST = HELP.with_name("laws_list.txt")


def readme_examples() -> list[tuple[list[str], str]]:
    """Each ``$ mulprob ...`` line of the README's CLI section with its output."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in block.strip().split("\n\n"):
            command, *output = chunk.splitlines()
            argv = shlex.split(command.removeprefix("$ mulprob "), comments=True)
            examples.append((argv, "".join(line + "\n" for line in output)))
    return examples


def call(argv) -> tuple:
    """``main(argv)`` in this process: (exit code, stdout, stderr); the exit
    code of ``--help`` and ``--version`` is ``("exit", code)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestOneProcess:
    """``main`` builds its parser once and can be called any number of times."""

    def test_readme_examples_in_one_process(self):
        examples = readme_examples()
        assert len(examples) == 11
        between = [["mn", "<1 a>"], ["laws", "--list"], ["--help"], ["--version"], ["mn", "--help"]]
        seen = {}
        for i, (argv, expected) in enumerate(examples + examples[::-1]):
            assert expected, argv
            assert call(argv) == (0, expected, ""), argv
            other = between[i % len(between)]
            seen.setdefault(tuple(other), set()).add(call(other))
        assert {k: len(v) for k, v in seen.items()} == {tuple(a): 1 for a in between}
        (code, _, err), = seen[("mn", "<1 a>")]
        assert (code, err) == (2, "parse error: mulprob mn: the following arguments are required: --k\n")
        (code, out, _), = seen[("laws", "--list")]
        assert code == 0 and out.startswith("acc-arr-id ")
        for flag in ("--help", "--version"):
            (code, out, _), = seen[(flag,)]
            assert code == ("exit", 0) and out.startswith("usage: mulprob" if flag == "--help" else "mulprob ")

    def test_parser_is_built_once(self, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        for i in range(20):
            call(["acc", "a", "b"] if i % 2 else ["bogus"])
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the pinned help text is argparse's formatting under Python 3.11")
    def test_help_matches_the_pinned_text(self):
        commands = [[], *([name] for name in cli._COMMANDS)]
        with patch.dict(os.environ, {"COLUMNS": "80"}):
            text = "".join(call([*c, "--help"])[1] for c in commands)
        assert text == HELP.read_text()


# -- generated command lines ----------------------------------------------------

_ATOMS = st.sampled_from(["a", "b", "u", "z0", "0", "00"])
_ELEMENTS = st.recursive(_ATOMS, lambda inner: st.tuples(inner, inner).map("({0[0]},{0[1]})".format),
                         max_leaves=3)


def _dist_text(weighted) -> str:
    total = sum(n for n, _ in weighted)
    return "<" + ", ".join(f"{n}/{total} {e}" for n, e in weighted) + ">"


_DISTS = st.lists(st.tuples(st.integers(1, 3), _ELEMENTS), min_size=1, max_size=3).map(_dist_text)


def _multisets(elements):
    return st.lists(st.tuples(st.integers(0, 3), elements), max_size=3).map(
        lambda es: "[" + ", ".join(f"{n} {e}" for n, e in es) + "]")


_VALUES = st.sampled_from(["0", "1", "1/2", "2/3", "3/2", "-1/2", "1/0", "01"])
_PREDICATES = st.lists(st.tuples(_ELEMENTS, _VALUES), max_size=3).map(
    lambda es: "(" + ", ".join(f"{e}:{v}" for e, v in es) + ")")
_CHANNELS = st.lists(st.tuples(_ELEMENTS, _DISTS), max_size=2).map(
    lambda es: "{" + ", ".join(f"{e}: {d}" for e, d in es) + "}")
# Ket characters in any order; no 'h' or 'v', so never a prefix of --help or --version.
_MALFORMED = st.text(alphabet="[]<>(){},:/ -0123456789abuz", max_size=10)
_LITERALS = st.one_of(_ELEMENTS, _multisets(_ELEMENTS), _DISTS, _PREDICATES, _CHANNELS,
                      _multisets(_DISTS), _MALFORMED)
_NUMBERS = st.sampled_from(["0", "1", "2", "3", "-1", "x", "", "007", "1000000"])
_FLAGS = st.sampled_from(["--k", "--pred", "--chan", "--list", "--law", "--x-size", "--seed",
                          "--random", "--n-random", "--bogus", "-k", "--"])
_LAWS = st.sampled_from([name for name, _ in catalogue()] + ["nope"])
_TOKENS = st.one_of(_LITERALS, _NUMBERS, _FLAGS, _LAWS)

# A well-formed command line per subcommand; each literal slot is filled
# with a literal of its kind or, sometimes, with any literal at all.
_SLOTS = {kind: st.one_of(literals, _LITERALS) for kind, literals in [
    ("elem", _ELEMENTS), ("multiset", _multisets(_ELEMENTS)), ("dist", _DISTS),
    ("pred", _PREDICATES), ("chan", _CHANNELS), ("nested", _multisets(_DISTS))]}
_SLOTS.update(num=_NUMBERS, law=_LAWS)
_SHAPES = {
    "mn": ("dist", "--k", "num"), "hg": ("multiset", "--k", "num"), "dd": ("multiset",),
    "arr": ("multiset",), "acc": ("elem", "elem"), "flrn": ("multiset",),
    "mzip": ("multiset", "multiset"), "pml": ("nested",), "update": ("dist", "--pred", "pred"),
    "validity": ("dist", "--pred", "pred"),
    "sample-check": ("dist", "--chan", "chan", "--k", "num"), "laws": ("--law", "law"),
}
# Given last, these keep any sweep that parses to a fraction of a second.
_SMALL_SWEEP = ["--x-size", "1", "--y-size", "1", "--k", "1", "--l", "1", "--n", "1",
                "--random", "1"]


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from([*_SHAPES, "bogus"]))
    argv = [command]
    for slot in _SHAPES.get(command, ()):
        argv.append(draw(_SLOTS[slot]) if slot in _SLOTS else slot)
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    if "laws" in argv:
        argv += _SMALL_SWEEP
    return argv


class TestGeneratedCommandLines:
    @settings(max_examples=300)
    @given(_argvs(), st.sampled_from(["0", "1", "4", "16", "64", "x"]))
    def test_every_command_line_ends_in_a_code_and_one_line(self, argv, budget):
        with patch.dict(os.environ, {"MULPROB_MAX_CELLS": budget}):
            code, out, err = call(argv)
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err)
        if code == 0:
            assert err == "" and out.endswith("\n")
        elif code == 2:
            assert out == "" and err.startswith("parse error: ")
        elif err:
            assert out == "" and err.startswith("error: ")
        else:  # a check that does not hold prints its report
            assert re.search(r"(sample-check: MISMATCH|summary: .*, [1-9]\d* fail)\n\Z", out)
