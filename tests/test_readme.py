"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs():
    # Every name the example uses comes from ``from mulprob import *``, so
    # an export dropped from the package fails here.
    names: dict = {}
    exec(library_example(), names)
    bind, pml, flrn, flatten = names["bind"], names["pml"], names["flrn"], names["flatten"]
    psi = names["psi"]
    assert bind(pml(psi), flrn) == flatten(flrn(psi))
    assert names["c"] == names["parse_channel"]("{a: <1/2 u, 1/2 v>, b: <1 u>}")
    format_value, Multiset = names["format_value"], names["Multiset"]
    assert format_value(names["ppr"](("a", "b", "b"))) == "<2/3 (a,b), 1/3 (b,b)>"
    assert (format_value(names["draw_delete"](Multiset({"a": 1, "b": 2})))
            == "<2/3 [1 a, 1 b], 1/3 [2 b]>")
