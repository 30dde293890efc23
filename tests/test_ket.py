from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulprob.dist import Dist, Predicate
from mulprob.elements import Pair
from mulprob.errors import ParseError
from mulprob.ket import (
    format_value,
    parse_channel,
    parse_dist,
    parse_element,
    parse_multiset,
    parse_predicate,
    parse_value,
)
from mulprob.multiset import Multiset

F = Fraction


class TestParseBasics:
    def test_multiset(self):
        assert parse_multiset("[3 a, 2 b]") == Multiset({"a": 3, "b": 2})

    def test_empty_multiset(self):
        assert parse_multiset("[]") == Multiset()

    def test_dist(self):
        assert parse_dist("<1/3 a, 2/3 b>") == Dist({"a": F(1, 3), "b": F(2, 3)})

    def test_predicate(self):
        assert parse_predicate("(a:1, b:1/2)") == Predicate({"a": 1, "b": F(1, 2)})

    def test_pair_keyed_predicate(self):
        # The token after "(" cannot tell a predicate from a pair when the
        # first key is itself a pair; the parser decides after reading it.
        got = parse_value("((a,b):1, (a,c):1/2)")
        assert got == Predicate({Pair("a", "b"): 1, Pair("a", "c"): F(1, 2)})
        assert parse_value("((a,b),c)") == Pair(Pair("a", "b"), "c")

    def test_pair_element(self):
        assert parse_element("(a,0)") == Pair("a", "0")
        assert parse_element("(a,(b,c))") == Pair("a", Pair("b", "c"))

    def test_numeral_atoms(self):
        assert parse_element("0") == "0"
        assert parse_multiset("[2 0, 1 1]") == Multiset({"0": 2, "1": 1})

    def test_nested_dist_over_multisets(self):
        text = "<1/12 [3 a], 13/36 [2 a, 1 b], 4/9 [1 a, 2 b], 1/9 [3 b]>"
        got = parse_dist(text)
        assert got[Multiset({"a": 2, "b": 1})] == F(13, 36)
        assert format_value(got) == text

    def test_multiset_of_dists(self):
        text = "[2 <1/3 a, 2/3 b>, 1 <3/4 a, 1/4 b>]"
        got = parse_multiset(text)
        assert got.size == 3
        assert got[Dist({"a": F(1, 3), "b": F(2, 3)})] == 2
        assert format_value(got) == text

    def test_parse_value_dispatch(self):
        assert isinstance(parse_value("[1 a]"), Multiset)
        assert isinstance(parse_value("<1 a>"), Dist)
        assert isinstance(parse_value("(a:1)"), Predicate)
        assert parse_value("(a,b)") == Pair("a", "b")
        assert parse_value("abc") == "abc"

    def test_channel_table(self):
        chan = parse_channel("{a: <1/2 u, 1/2 v>, b: <1 u>}")
        assert set(chan.domain) == {"a", "b"}
        assert chan("b") == Dist({"u": 1})

    def test_elements_nest_anywhere(self):
        # Pair components, predicate keys and channel keys read the same
        # element production as multiset and distribution entries.
        assert parse_value("([1 a],[1 u])") == Pair(Multiset({"a": 1}), Multiset({"u": 1}))
        assert parse_element("(<1 a>,[])") == Pair(Dist({"a": 1}), Multiset())
        chan = parse_channel("{[1 a]: <1 [1 u]>}")
        assert chan(Multiset({"a": 1})) == Dist({Multiset({"u": 1}): 1})
        assert parse_value("([1 a]:1, <1 b>:1/2)") == Predicate(
            {Multiset({"a": 1}): 1, Dist({"b": 1}): F(1, 2)})


class TestCanonicalization:
    def test_multiset_entries_sorted_and_merged(self):
        assert format_value(parse_multiset("[2 b, 1 a, 1 b]")) == "[1 a, 3 b]"

    def test_zero_multiplicities_dropped(self):
        assert format_value(parse_multiset("[0 a, 1 b]")) == "[1 b]"

    def test_dist_entries_sorted(self):
        assert format_value(parse_dist("<2/3 b, 1/3 a>")) == "<1/3 a, 2/3 b>"

    def test_integer_weight_prints_bare(self):
        assert format_value(parse_dist("<1 a>")) == "<1 a>"

    def test_round_trip_corpus(self):
        corpus = [
            "[]",
            "[3 a, 2 b]",
            "[1 (a,z0), 2 (b,z1)]",
            "<1 a>",
            "<1/3 a, 2/3 b>",
            "<1/4 (a,0), 1/12 (a,1), 1/2 (b,0), 1/6 (b,1)>",
            "<1/3 [1 (a,z1), 2 (b,z0)], 2/3 [1 (a,z0), 1 (b,z0), 1 (b,z1)]>",
            "[2 <1/3 a, 2/3 b>, 1 <3/4 a, 1/4 b>]",
            "(a:1, b:1/2)",
            "(a,(b,c))",
        ]
        for text in corpus:
            assert format_value(parse_value(text)) == text

    def test_weights_on_same_value_merge(self):
        assert format_value(parse_dist("<1/2 a, 1/2 a>")) == "<1 a>"

    def test_numerals_of_equal_value_order_by_text(self):
        # "0" and "00" are distinct atoms with the same numeric value; the
        # canonical order must still be total, so entry order cannot matter.
        assert parse_multiset("[1 0, 1 00]") == parse_multiset("[1 00, 1 0]")
        assert format_value(parse_multiset("[1 00, 1 0]")) == "[1 0, 1 00]"
        assert format_value(parse_dist("<1/2 007, 1/2 7>")) == "<1/2 007, 1/2 7>"
        assert format_value(parse_multiset("[1 10, 1 9, 1 09]")) == "[1 09, 1 9, 1 10]"


atoms = st.sampled_from(["a", "b", "z0", "0", "00", "7"])
keys = st.recursive(atoms, lambda inner: st.builds(Pair, inner, inner), max_leaves=4)
unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=200)
@given(st.dictionaries(keys, unit_rationals, min_size=1, max_size=5))
def test_predicate_round_trip(values):
    p = Predicate(values)
    text = format_value(p)
    assert parse_value(text) == p
    assert format_value(parse_value(text)) == text


class TestFormatting:
    def test_tuples(self):
        assert format_value(("a", "b", "b")) == "(a,b,b)"
        assert format_value(()) == "()"

    def test_pairs_have_no_spaces(self):
        assert format_value(Pair("a", "z1")) == "(a,z1)"

    def test_channels_print_in_domain_order(self):
        text = "{b: <1 u>, (a,0): <2/3 v, 1/3 u>, a: <1/2 u, 1/2 v>}"
        assert format_value(parse_channel(text)) == (
            "{a: <1/2 u, 1/2 v>, b: <1 u>, (a,0): <1/3 u, 2/3 v>}")

    def test_values_repr_as_their_ket_text(self):
        assert repr(parse_value("<2/3 b, 1/3 a>")) == "Dist('<1/3 a, 2/3 b>')"
        assert repr(parse_value("[2 b, 1 [1 a]]")) == "Multiset('[2 b, 1 [1 a]]')"
        assert repr(Multiset()) == "Multiset('[]')"
        assert repr(parse_value("(b:1/2, a:1)")) == "Predicate('(a:1, b:1/2)')"
        assert repr(Pair("a", Multiset({"b": 1}))) == "Pair('(a,[1 b])')"
        assert str(Pair("a", Multiset({"b": 1}))) == "(a,[1 b])"
        assert repr(parse_value("{b: <1 u>, a: <1/2 v, 1/2 u>}")) == (
            "Channel('{a: <1/2 u, 1/2 v>, b: <1 u>}')")
        assert repr(parse_value("{}")) == "Channel('{}')"

    @pytest.mark.parametrize("value", [1, None, ["a"], {"a": 1}])
    def test_other_objects_are_not_values(self, value):
        with pytest.raises(TypeError, match="^cannot format .* as a value$"):
            format_value(value)

    def test_predicate_format(self):
        assert format_value(Predicate({"b": F(1, 2), "a": 1})) == "(a:1, b:1/2)"


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_multiset("[1 a; 2 b]")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_multiset("[1 a] extra")

    def test_missing_bracket(self):
        with pytest.raises(ParseError):
            parse_multiset("[1 a")

    def test_weight_sum_must_be_one(self):
        with pytest.raises(ParseError) as err:
            parse_dist("<1/2 a, 1/3 b>")
        assert "5/6" in str(err.value)

    def test_negative_weight(self):
        with pytest.raises(ParseError):
            parse_dist("<-1/2 a, 3/2 b>")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_dist("<1/0 a>")

    def test_predicate_value_out_of_range(self):
        with pytest.raises(ParseError):
            parse_predicate("(a:3/2)")

    def test_multiplicity_must_be_plain_natural(self):
        with pytest.raises(ParseError):
            parse_multiset("[-1 a]")

    @pytest.mark.parametrize("text", ["[\u0663 a]", "<1/\u0662 a, 1/2 b>", "\u0663", "[1 \uff11]"])
    def test_numerals_are_ascii_digits(self, text):
        # Other Unicode digits would parse to values the printer shows as
        # ASCII, or as atoms that neither sort nor print as numerals.
        with pytest.raises(ParseError) as err:
            parse_value(text)
        assert str(err.value).startswith("unexpected character")

    def test_empty_dist_is_invalid(self):
        with pytest.raises(ParseError):
            parse_dist("<>")
        with pytest.raises(ParseError):
            parse_value("<>")

    @pytest.mark.parametrize("text", ["[1 (a:1)]", "<1 (a:1)>", "((a:1),b)", "[1 {}]",
                                      "{a: <1 {}>}", "{(a:1): <1 u>}", "{a: [1 u]}"])
    def test_predicates_and_channels_are_not_elements(self, text):
        # They have no place in the element order, so they stay top-level.
        with pytest.raises(ParseError):
            parse_value(text)

    def test_nesting_depth_is_bounded(self):
        deepest = "[1 " * 100 + "a" + "]" * 100
        assert format_value(parse_multiset(deepest)) == deepest
        with pytest.raises(ParseError) as err:
            parse_multiset("[1 " * 101 + "a" + "]" * 101)
        assert err.value.position == 300
        with pytest.raises(ParseError):
            parse_element("(" * 101 + "a" + ",b)" * 101)
        with pytest.raises(ParseError):
            parse_dist("<1 " * 101 + "a" + ">" * 101)

    def test_every_predicate_key_nests_alike(self):
        # The bracket of a predicate is one nesting level for each of its
        # keys.  Once it counted for the first key only, so a 100-level
        # pair parsed as a later key, printed first in canonical order,
        # and the printed predicate no longer parsed.
        nested = "(0," * 99 + "0" + ")" * 99
        too_deep = "(0," * 100 + "0" + ")" * 100
        p = parse_value(f"((a,a):1, {nested}:1/2)")
        assert format_value(p).startswith(f"({nested}:1/2, ")
        assert parse_value(format_value(p)) == p
        for text in (f"({too_deep}:1)", f"(a:1, {too_deep}:1)", f"((a,a):1, {too_deep}:1/2)"):
            for parse in (parse_value, parse_predicate):
                with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
                    parse(text)

    def test_duplicate_channel_entry_in_ket_notation(self):
        for text, key in [("{(a,b): <1 u>, (a,b): <1 v>}", "(a,b)"), ("{a: <1 u>, a: <1 v>}", "a")]:
            with pytest.raises(ParseError) as err:
                parse_channel(text)
            assert str(err.value).startswith(f"duplicate channel entry for {key} (at position ")

    def test_positions_reported(self):
        with pytest.raises(ParseError) as err:
            parse_dist("<1/3 a, 2/3 $>")
        assert err.value.position == 12
