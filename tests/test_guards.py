"""Guards that the rest of the suite does not reach.

Each case asserts the exception type and message of one guard, so
removing that guard fails it.  One property feeds hostile sizes and
weights to every operation that takes one.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mulprob.channels import hypergeometric, multinomial
from mulprob.combinatorics import multichoose
from mulprob.dist import Channel, Dist, Predicate, iid, pred_extend, unit, update, validity
from mulprob.elements import Pair, Space, elem_key
from mulprob.errors import DomainError
from mulprob.laws import Law, LawContext, run_law
from mulprob.multiset import Multiset, accumulate, enumerate_multisets
from mulprob.pml import lifted_map

AB = Space(["a", "b"])
COIN = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})


@pytest.mark.parametrize("call, message", [
    (lambda: multichoose(-1, 2), "element count must be nonnegative: -1"),
    (lambda: Dist.uniform([]), "uniform distribution over nothing"),
    (lambda: iid(COIN, -1), "copy count must be nonnegative: -1"),
    (lambda: AB.power(-1), "sequence length must be nonnegative: -1"),
    (lambda: Multiset({"a": 1.5}), "multiplicity must be an integer: 1.5"),
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
    # The slots exist, so only the guard stops the assignment.
    name = type(value).__name__
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(value, slot, Space([]))


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
