from importlib import import_module
from pathlib import Path

import pytest

import mulprob

# The submodules the package's imports bind are not exports; ``pml`` is the
# function, which shadows the module of the same name.

EXPORTS = [
    "Channel", "Dist", "DomainError", "Elem", "LawContext", "LawReport", "MulprobError",
    "Multiset", "Pair", "ParseError", "Predicate", "ResourceLimitError", "Space",
    "accumulate", "arrange", "big_tensor", "bind", "catalogue", "compose",
    "ctensor", "draw_delete", "dtensor", "elem_key", "enumerate_arrangements",
    "enumerate_multisets", "flatten", "flrn", "format_value", "hypergeometric", "iid",
    "lifted_map", "monoid_sum", "multichoose", "multinomial", "mzip",
    "parse_channel", "parse_dist", "parse_element", "parse_multiset", "parse_predicate",
    "parse_value", "pml", "ppr", "pred_extend", "push", "render_reports", "run_laws", "unit",
    "update", "validity", "zip_tuples",
]


def test_exports_are_pinned():
    assert mulprob.__all__ == EXPORTS


def test_the_console_script_and_the_version_are_those_of_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    assert project["version"] == mulprob.__version__
    module, _, name = project["scripts"]["mulprob"].partition(":")
    main = getattr(import_module(module), name)
    assert main is mulprob.cli.main
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"mulprob {mulprob.__version__}\n"
