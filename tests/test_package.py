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
