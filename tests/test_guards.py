"""Guards that the rest of the suite does not reach.

Each case asserts the exception type and message of one guard, so
removing that guard fails it.  One property feeds hostile sizes and
weights to every operation that takes one.
"""

import re
from collections.abc import Mapping
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mulprob.channels import (
    arrange, draw_delete, hypergeometric, multinomial, mzip, ppr, zip_tuples)
from mulprob.combinatorics import multichoose
from mulprob.dist import (
    Channel, Dist, Predicate, big_tensor, bind, compose, ctensor, dtensor, flrn, iid,
    pred_extend, push, unit, update, validity)
from mulprob.elements import Pair, Space, _show, elem_key
from mulprob.errors import DomainError, MulprobError
from mulprob.laws import Law, LawContext, run_law
from mulprob.multiset import Multiset, accumulate, enumerate_arrangements, enumerate_multisets
from mulprob.pml import lifted_map, monoid_sum, pml

AB = Space(["a", "b"])
COIN = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})


class Two(IntEnum):
    TWO = 2


@pytest.mark.parametrize("call, message", [
    (lambda: multichoose(-1, 2), "element count must be nonnegative: -1"),
    (lambda: Dist.uniform([]), "uniform distribution over nothing"),
    (lambda: iid(COIN, -1), "copy count must be nonnegative: -1"),
    (lambda: AB.power(-1), "sequence length must be nonnegative: -1"),
    (lambda: Multiset({"a": 1.5}), "multiplicity must be an integer: 1.5"),
    # An ``int`` subclass is no size, as for ``iid`` and ``_check_size``.
    (lambda: Multiset({"a": Two.TWO}), "multiplicity must be an integer: <Two.TWO: 2>"),
    (lambda: enumerate_multisets(AB, -1), "multiset size must be nonnegative: -1"),
    (lambda: lifted_map(Channel.identity(AB), -1), "multiset size must be nonnegative: -1"),
    (lambda: LawContext(x_size=5), "law spaces support at most 4 elements"),
    (lambda: LawContext(k_max=-1), "k_max must be nonnegative: -1"),
    (lambda: Dist._over(["a", "b"], [1, 2], 4), "weights sum to 3/4, not 1"),
])
def test_domain_guards(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_a_multiset_and_a_distribution_do_not_add():
    message = "unsupported operand type(s) for +: 'Multiset' and 'Dist'"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Multiset({"a": 1}) + COIN


@pytest.mark.parametrize("value, slot", [
    (Multiset({"a": 2}), "_total"),
    (COIN, "_total"),
    (Channel.identity(AB), "domain"),
    (Pair("a", "b"), "fst"),
])
def test_values_are_immutable(value, slot):
    # The slots exist, so only the guard stops the assignment and the deletion.
    name = type(value).__name__
    before = getattr(value, slot)
    for change in (lambda: setattr(value, slot, Space([])), lambda: delattr(value, slot)):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            change()
        assert getattr(value, slot) is before


@pytest.mark.parametrize("value, text", [
    (Pair(1, 2), "Pair(1, 2)"),
    (Pair("a", Pair(1, "b")), "Pair('a', Pair(1, 'b'))"),
    (Multiset({1: 2}), "Multiset({1: 2})"),
    (Dist({1: 1}), "Dist({1: Fraction(1, 1)})"),
    (Channel.from_mapping({"a": unit(1)}), "Channel({'a': Dist({1: Fraction(1, 1)})})"),
], ids=["pair", "nested-pair", "multiset", "dist", "channel"])
def test_repr_of_a_value_outside_the_grammar_shows_its_parts(value, text):
    with pytest.raises(TypeError):
        str(value)
    assert repr(value) == text


def test_a_space_of_elements_without_a_common_order_prints():
    # Built inside the ``try``, so a constructor that rejects it passes too.
    try:
        space = Space(["a", 1])
    except MulprobError:
        return
    for text in (repr(space), str(space)):
        assert "'a'" in text and "1" in text


def test_elem_key_rejects_non_elements():
    with pytest.raises(TypeError, match=r"^not an element value: <object object at "):
        elem_key(object())


def test_a_str_subclass_is_an_atom():
    class Atom(str):
        pass

    assert elem_key(Atom("7")) == elem_key("7")
    assert elem_key(Atom("b")) == elem_key("b")
    assert accumulate([Atom("b"), "a", "b"]).entries == (("a", 1), ("b", 2))


def test_an_expected_failure_whose_legs_agree_fails():
    agreeing = Law("agree", "both legs are the same point mass",
                   lambda ctx: iter([(["a"], unit, unit)]), expect_fail=True)
    report = run_law(agreeing, LawContext())
    assert (report.verdict, report.witness) == (
        "fail", "expected the two legs to differ, but they agree")


@pytest.mark.parametrize("value", [Multiset({"a": 2}), COIN], ids=["Multiset", "Dist"])
def test_count_stores_are_not_iterable(value):
    # Without the guard ``iter`` would fall back on indexing, which yields 0
    # forever; it returns at once either way, so it is asserted first and a
    # missing guard fails here instead of hanging below.
    not_iterable = f"^'{type(value).__name__}' object is not iterable$"
    with pytest.raises(TypeError, match=not_iterable):
        iter(value)
    for call in (list, sorted, Multiset, Dist, Space, accumulate, Dist.uniform,
                 lambda v: Channel(v, unit), lambda v: enumerate_multisets(v, 1)):
        with pytest.raises(TypeError, match=not_iterable):
            call(value)
    assert "a" in value and "c" not in value
    assert list(Space(["b", "a"])) == ["a", "b"]


# Every operation that takes a size, as a function of that size.
SIZED = {
    "multichoose-n": lambda n: multichoose(n, 2),
    "multichoose-k": lambda k: multichoose(2, k),
    "enumerate_multisets": lambda k: enumerate_multisets(AB, k),
    "Space.power": AB.power,
    "iid": lambda k: iid(COIN, k),
    "multinomial": lambda k: multinomial(COIN, k),
    "hypergeometric": lambda k: hypergeometric(Multiset({"a": 2, "b": 1}), k),
    "lifted_map": lambda k: lifted_map(Channel.identity(AB), k),
    **{f"LawContext-{bound}": (lambda k, bound=bound: LawContext(**{bound: k}))
       for bound in ("x_size", "y_size", "k_max", "l_max", "n_max", "n_random")},
}

# Every place a weight or a predicate value enters, as a function of it.
WEIGHED = {
    "Dist": lambda w: Dist({"a": w}),
    "Predicate": lambda w: Predicate({"a": w}),
    "validity": lambda w: validity(COIN, lambda _: w),
    "update": lambda w: update(COIN, lambda _: w),
    "pred_extend": lambda w: pred_extend(lambda _: w)(Multiset({"a": 2})),
}

# No value here is a size; the ``int``s and ``Fraction``s among them are weights.
HOSTILE = st.one_of(
    st.booleans(), st.none(), st.floats(), st.complex_numbers(), st.decimals(),
    st.text(max_size=3), st.integers(max_value=-1), st.fractions(),
    st.lists(st.integers(), max_size=2),
)


@pytest.mark.parametrize("kind, call", [("size", call) for call in SIZED.values()]
                         + [("weight", call) for call in WEIGHED.values()],
                         ids=[*SIZED, *WEIGHED])
@settings(max_examples=30)
@given(value=HOSTILE)
@example(value=True)
@example(value=2.0)
@example(value=-1)
@example(value="2")
@example(value=None)
@example(value="1/3")
@example(value=1 + 0j)
@example(value=0.5)
def test_hostile_arguments_raise_one_line_domain_errors(kind, call, value):
    # An exact weight is judged by its range, which not every operation checks.
    assume(kind == "size" or type(value) not in (int, Fraction))
    with pytest.raises(DomainError) as err:
        call(value)
    message = str(err.value)
    assert "\n" not in message and repr(value) in message


# Every entry point that checks the kind of a value: the kind it takes, the
# words its message starts with, and the call as a function of that value.
ID = Channel.identity(AB)
KINDED = {
    "bind": (Dist, "bind got", lambda v: bind(v, unit)),
    "bind-kernel": (Dist, "channel kernel returned", lambda v: bind(COIN, lambda _: v)),
    "channel-kernel": (Dist, "channel kernel returned", lambda v: Channel(AB, lambda _: v)("a")),
    "push-state": (Dist, "push got", lambda v: push(ID, v)),
    "push-channel": (Channel, "push got", lambda v: push(v, COIN)),
    "compose-first": (Channel, "compose got", lambda v: compose(v, ID)),
    "compose-second": (Channel, "compose got", lambda v: compose(ID, v)),
    "dtensor-left": (Dist, "dtensor got", lambda v: dtensor(v, COIN)),
    "dtensor-right": (Dist, "dtensor got", lambda v: dtensor(COIN, v)),
    "ctensor-left": (Channel, "ctensor got", lambda v: ctensor(v, ID)),
    "ctensor-right": (Channel, "ctensor got", lambda v: ctensor(ID, v)),
    "big_tensor": (Dist, "big_tensor got", lambda v: big_tensor([COIN, v])),
    "flrn": (Multiset, "flrn got", flrn),
    "validity": (Dist, "validity got", lambda v: validity(v, lambda _: 1)),
    "update": (Dist, "update got", lambda v: update(v, lambda _: 1)),
    "from_mapping": (Mapping, "from_mapping got", Channel.from_mapping),
    "multinomial": (Dist, "multinomial got", lambda v: multinomial(v, 1)),
    "hypergeometric": (Multiset, "hypergeometric got", lambda v: hypergeometric(v, 1)),
    "draw_delete": (Multiset, "draw_delete got", draw_delete),
    "arrange": (Multiset, "arrange got", arrange),
    "mzip-left": (Multiset, "mzip got", lambda v: mzip(v, Multiset({"a": 2}))),
    "mzip-right": (Multiset, "mzip got", lambda v: mzip(Multiset({"a": 2}), v)),
    "ppr": (tuple, "ppr got", ppr),
    "zip_tuples-left": (tuple, "zip_tuples got", lambda v: zip_tuples(v, ("a",))),
    "zip_tuples-right": (tuple, "zip_tuples got", lambda v: zip_tuples(("a",), v)),
    "monoid_sum-left": (Dist, "monoid_sum got", lambda v: monoid_sum(v, unit(Multiset()))),
    "monoid_sum-right": (Dist, "monoid_sum got", lambda v: monoid_sum(unit(Multiset()), v)),
    "pml": (Multiset, "pml got", pml),
    "lifted_map": (Channel, "lifted_map got", lambda v: lifted_map(v, 1)),
    "tensor": (Multiset, "tensor got", Multiset({"a": 1}).tensor),
    "enumerate_arrangements": (Multiset, "enumerate_arrangements got", enumerate_arrangements),
    "product": (Space, "product got", AB.product),
}

# One value of each kind.
KINDS = {
    "Multiset": Multiset({"a": 2}),
    "Dist": COIN,
    "Space": AB,
    "Channel": ID,
    "Predicate": Predicate({"a": 1}),
    "Pair": Pair("a", "b"),
    "atom": "a",
    "tuple": ("a", "b"),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry, (kind, _, _) in KINDED.items()
    for name, value in KINDS.items() if not isinstance(value, kind)])
def test_each_kind_guard_rejects_every_other_kind(entry, value):
    kind, said, call = KINDED[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    message = str(err.value)
    assert message == f"{said} {_show(value)}, not a {kind.__name__}"
    assert "\n" not in message


# Every entry point that takes a function: the words its message starts
# with, and the call as a function of the value given for the function.
FUNCTIONED = {
    "bind": ("bind got", lambda f: bind(COIN, f)),
    "validity": ("validity got", lambda f: validity(COIN, f)),
    "update": ("update got", lambda f: update(COIN, f)),
    "pred_extend": ("pred_extend got", pred_extend),
    "Channel": ("Channel got", lambda f: Channel(AB, f)),
    "deterministic": ("deterministic got", lambda f: Channel.deterministic(AB, f)),
    "Dist.map": ("map got", COIN.map),
    "map_elements": ("map_elements got", Multiset({"a": 2}).map_elements),
}


# A channel and a predicate are functions; every other value kind is not.
@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry in FUNCTIONED
    for name, value in KINDS.items() if name not in ("Channel", "Predicate")])
def test_each_function_guard_rejects_every_value_kind(entry, value):
    said, call = FUNCTIONED[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    message = str(err.value)
    assert message == f"{said} {_show(value)}, not a function"
    assert "\n" not in message
