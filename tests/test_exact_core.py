"""Properties of the exact core: integer numerators over one denominator.

Each operation that builds distributions from integers is compared with a
plain-``Fraction`` reference written out here from its definition.  The
generated distributions draw their denominators from families with no
common factor, so products of denominators and the reduction on
construction are both exercised.
"""

import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mulprob.channels import arrange, draw_delete, hypergeometric, multinomial, mzip
from mulprob.dist import (
    Channel,
    Dist,
    Predicate,
    big_tensor,
    bind,
    ctensor,
    dtensor,
    flrn,
    iid,
    unit,
)
from mulprob.elements import Pair, Space, _FiniteMap, elem_key
from mulprob.errors import DomainError
from mulprob.ket import format_value, parse_channel, parse_value
from mulprob.multiset import Multiset, accumulate, enumerate_multisets
from mulprob.oracles import pml_def1
from mulprob.pml import lifted_map, monoid_sum, pml

F = Fraction

# Denominator families: powers of 2 and 3, and of 5 and 7.
DENS_23 = (1, 2, 3, 4, 6, 8, 9, 12)
DENS_57 = (5, 7, 25, 35)


@st.composite
def dists(draw, elements, dens=DENS_23):
    support = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3, unique=True))
    den = draw(st.sampled_from([d for d in dens if d >= len(support)]))
    cuts = []
    if len(support) > 1:
        cuts = draw(st.lists(st.integers(1, den - 1), min_size=len(support) - 1,
                             max_size=len(support) - 1, unique=True))
    bounds = [0, *sorted(cuts), den]
    return Dist({x: F(hi - lo, den) for x, lo, hi in zip(support, bounds, bounds[1:])})


SMALL_MULTISETS = [Multiset(), Multiset({"a": 1}), Multiset({"b": 2}),
                   Multiset({"a": 1, "b": 1}), Multiset({"a": 2, "c": 1})]


def same_weights(got: Dist, want: dict) -> None:
    """``got`` has exactly the weights ``want``, in canonical order."""
    want = {x: w for x, w in want.items() if w}
    assert dict(got.entries) == want
    assert got.support == tuple(sorted(want, key=elem_key))


def accumulate_into(acc: dict, key, w: Fraction) -> None:
    acc[key] = acc.get(key, F(0)) + w


@settings(max_examples=150)
@given(dists("abc"), st.fixed_dictionaries({x: dists("uvw", DENS_57) for x in "abc"}))
def test_bind_matches_fraction_reference(omega, table):
    want: dict = {}
    for x, w in omega.entries:
        for y, v in table[x].entries:
            accumulate_into(want, y, w * v)
    same_weights(bind(omega, table.__getitem__), want)


@settings(max_examples=150)
@given(dists("abc"), dists("uvw", DENS_57))
def test_dtensor_matches_fraction_reference(omega, rho):
    want = {Pair(x, y): w * v for x, w in omega.entries for y, v in rho.entries}
    same_weights(dtensor(omega, rho), want)


@settings(max_examples=100)
@given(st.lists(st.one_of(dists("ab"), dists("uv", DENS_57)), max_size=3))
def test_big_tensor_matches_fraction_reference(omegas):
    want: dict = {}
    for combo in itertools.product(*(omega.entries for omega in omegas)):
        accumulate_into(want, tuple(x for x, _ in combo), math.prod((w for _, w in combo), start=F(1)))
    same_weights(big_tensor(omegas), want)


@settings(max_examples=150)
@given(dists(SMALL_MULTISETS), dists(SMALL_MULTISETS, DENS_57))
def test_monoid_sum_matches_fraction_reference(a, b):
    want: dict = {}
    for phi, w in a.entries:
        for chi, v in b.entries:
            accumulate_into(want, phi + chi, w * v)
    same_weights(monoid_sum(a, b), want)


@settings(max_examples=100)
@given(st.one_of(dists("abc"), dists("abc", DENS_57)), st.integers(0, 4))
def test_multinomial_matches_fraction_reference(omega, k):
    # Every sequence of k independent draws, collapsed to its multiset.
    want: dict = {}
    for seq in itertools.product(omega.entries, repeat=k):
        draw = Multiset((x, 1) for x, _ in seq)
        accumulate_into(want, draw, math.prod((w for _, w in seq), start=F(1)))
    same_weights(multinomial(omega, k), want)


@settings(max_examples=100)
@given(st.dictionaries(st.sampled_from("abc"), st.integers(1, 3), min_size=1), st.data())
def test_hypergeometric_matches_fraction_reference(counts, data):
    urn = Multiset(counts)
    k = data.draw(st.integers(0, urn.size))
    # Every k-subset of the urn's numbered copies, equally likely.
    copies = [x for x, n in urn.entries for _ in range(n)]
    subsets = list(itertools.combinations(range(len(copies)), k))
    want: dict = {}
    for subset in subsets:
        accumulate_into(want, Multiset((copies[i], 1) for i in subset), F(1, len(subsets)))
    same_weights(hypergeometric(urn, k), want)


@settings(max_examples=150)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "0", "00", Pair("a", "0")]),
                          st.fractions(min_value=0, max_value=1, max_denominator=12)),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_constructor_order_does_not_matter(weighted, rng):
    total = sum(w for _, w in weighted)
    if total == 0:
        return
    entries = [(x, w / total) for x, w in weighted]
    shuffled = list(entries)
    rng.shuffle(shuffled)
    a, b = Dist(entries), Dist(shuffled)
    assert a == b and hash(a) == hash(b)
    assert a.entries == b.entries
    assert Dist(dict(a.entries)) == a
    counts = [(x, w.numerator) for x, w in weighted]
    assert Multiset(counts) == Multiset(list(reversed(counts)))
    assert Multiset(counts).entries == Multiset(list(reversed(counts))).entries


def assert_same_value(a, b) -> None:
    """Two constructions of one value agree in every view, and ``entries``
    lists the support in the canonical order."""
    assert a == b and hash(a) == hash(b)
    assert a.entries == b.entries
    assert format_value(a) == format_value(b)
    keys = [elem_key(e) for e, _ in a.entries]
    assert keys == sorted(keys)


KEYS = ["a", "b", "0", "00", "7", Pair("a", "0"), Pair("a", "b")]


@settings(max_examples=150)
@given(st.dictionaries(st.sampled_from(KEYS), st.fractions(0, 1, max_denominator=12),
                       min_size=1, max_size=5),
       st.randoms(use_true_random=False))
def test_predicate_order_does_not_matter(values, rng):
    items = list(values.items())
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert_same_value(Predicate(items), Predicate(shuffled))


@settings(max_examples=150)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=len(KEYS)), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_internal_dist_order_does_not_matter(nums, scale, rng):
    # Numerators over their sum, with a common factor the constructor removes.
    items = [(x, n * scale) for x, n in zip(KEYS, nums)]
    shuffled = list(items)
    rng.shuffle(shuffled)
    den = sum(nums) * scale
    a, b = (Dist._over([x for x, _ in xs], [n for _, n in xs], den) for xs in (items, shuffled))
    assert_same_value(a, b)
    assert a == Dist({x: F(n, den) for x, n in items})


ATOMS = ["a", "b", "0", "00", "7", "007"]
element_texts = st.recursive(
    st.sampled_from(ATOMS), lambda inner: st.builds("({},{})".format, inner, inner),
    max_leaves=3)


def multiset_text(entries) -> str:
    return "[" + ", ".join(f"{n} {v}" for v, n in entries) + "]"


def dist_text(entries) -> str:
    total = sum(n for _, n in entries)
    return "<" + ", ".join(f"{n}/{total} {v}" for v, n in entries) + ">"


# Values nest in any order: pairs of multisets, multisets of pairs of
# distributions, and so on.
value_texts = st.recursive(
    element_texts,
    lambda inner: st.one_of(
        st.builds("({},{})".format, inner, inner),
        st.lists(st.tuples(inner, st.integers(0, 2)), max_size=3).map(multiset_text),
        st.lists(st.tuples(inner, st.integers(1, 3)), min_size=1, max_size=3).map(dist_text),
    ),
    max_leaves=5,
)
values = value_texts.map(parse_value)


@settings(max_examples=200)
@given(st.lists(value_texts, min_size=2, max_size=5))
def test_elem_key_is_injective_on_parsed_values(texts):
    values = [parse_value(t) for t in texts]
    for u, v in itertools.combinations(values, 2):
        assert (elem_key(u) == elem_key(v)) == (u == v)


def permuted_text(v, rng) -> str:
    """Ket text for a parsed value, with the entries at every level shuffled."""
    if isinstance(v, str):
        return v
    if isinstance(v, Pair):
        return f"({permuted_text(v.fst, rng)},{permuted_text(v.snd, rng)})"
    entries = list(v.entries)
    rng.shuffle(entries)
    inner = ", ".join(f"{w} {permuted_text(e, rng)}" for e, w in entries)
    return f"[{inner}]" if isinstance(v, Multiset) else f"<{inner}>"


def assert_canonical_throughout(v) -> None:
    if isinstance(v, Pair):
        assert_canonical_throughout(v.fst)
        assert_canonical_throughout(v.snd)
    elif not isinstance(v, str):
        keys = [elem_key(e) for e, _ in v.entries]
        assert keys == sorted(keys)
        for e, _ in v.entries:
            assert_canonical_throughout(e)


@settings(max_examples=200)
@given(value_texts, st.randoms(use_true_random=False))
def test_nested_construction_order_does_not_matter(text, rng):
    a = parse_value(text)
    b = parse_value(permuted_text(a, rng))
    assert a == b and hash(a) == hash(b)
    assert format_value(a) == format_value(b)
    if isinstance(a, (Multiset, Dist)):
        assert_same_value(a, b)
    assert_canonical_throughout(a)
    assert_canonical_throughout(b)


# Supports that share elements, nest in one another or miss each other,
# over identifiers, the equal-valued numerals 0 and 00, and pairs.
SUPPORTS = (("a", "b"), ("a",), ("a", "b", "0"), ("0", "00"),
            (Pair("a", "0"), "00"), (Pair("a", "0"), Pair("0", "a"), "b"))
members = st.sampled_from(SUPPORTS).flatmap(
    lambda support: st.one_of(dists(support), dists(support, DENS_57)))


@settings(max_examples=150)
@given(st.lists(st.tuples(members, st.integers(1, 2)), max_size=3).map(Multiset))
@example(Multiset())
@example(Multiset([(Dist.uniform("ab"), 2), (Dist({"a": F(1, 3), "b": F(2, 3)}), 1)]))
@example(Multiset([(Dist.uniform("ab"), 1), (Dist.uniform(["0", "00"]), 2)]))
@example(Multiset([(Dist({"a": 1}), 2), (Dist.uniform(["a", "b", "0"]), 1)]))
@example(Multiset([(Dist.uniform([Pair("a", "0"), "00"]), 2), (Dist.uniform(["0", "00"]), 1)]))
def test_pml_matches_joint_outcomes(psi):
    assert_same_value(pml(psi), pml_def1(psi))


@settings(max_examples=150)
@given(st.dictionaries(value_texts.map(parse_value), st.integers(1, 3), max_size=4),
       st.randoms(use_true_random=False))
def test_trusted_multiset_matches_the_checked_one(counts, rng):
    items = list(counts.items())
    rng.shuffle(items)
    trusted = Multiset._of(dict(items), sum(counts.values()))
    assert_same_value(trusted, Multiset(counts))
    assert trusted.size == Multiset(counts).size


def assert_total_is_the_sum(value) -> None:
    """The stored total is the sum of the stored counts: a multiset's size,
    or the denominator of a distribution, which shares no factor with its
    numerators."""
    assert value._total == sum(value._map.values())
    if type(value) is Multiset:
        assert value.size == value._total
    else:
        assert math.gcd(value._total, *value._map.values()) == 1


small_multisets = st.dictionaries(st.sampled_from("abc"), st.integers(1, 3)).map(Multiset)


@settings(max_examples=100)
@given(st.lists(st.sampled_from("abc"), max_size=4), small_multisets, small_multisets,
       st.integers(0, 3), st.one_of(dists("abc"), dists("abc", DENS_57)),
       st.lists(st.one_of(dists("ab"), dists("bc", DENS_57)), max_size=3), st.data())
def test_stored_totals_are_the_sums(xs, phi, psi, k, omega, omegas, data):
    ys = data.draw(st.lists(st.sampled_from("uvw"), min_size=phi.size, max_size=phi.size))
    multisets = [accumulate(xs), phi + psi, phi.tensor(psi),
                 phi.map_elements(lambda x: "a" if x == "b" else x),
                 *(draw_delete(phi).support if phi else ()), *enumerate_multisets("abc", k)]
    dists_built = [multinomial(omega, k), hypergeometric(phi, min(k, phi.size)),
                   pml(accumulate(omegas)), mzip(phi, accumulate(ys))]
    for d in dists_built:
        assert_total_is_the_sum(d)
        multisets.extend(d.support)
    for m in multisets:
        assert_total_is_the_sum(m)


@settings(max_examples=100)
@given(st.lists(values, min_size=1, max_size=5))
def test_uniform_is_the_normalized_accumulation(xs):
    assert_same_value(Dist.uniform(xs), flrn(accumulate(xs)))


def leading_zeros(text: str, rng) -> str:
    """The text with up to two zeros put before each numeral token, counts,
    weights and numeral atoms alike; ``07`` is another atom than ``7``."""
    return re.sub(r"\d+", lambda m: "0" * rng.randint(0, 2) + m.group(), text)


padded_value_texts = st.tuples(value_texts, st.randoms(use_true_random=False)).map(
    lambda t: leading_zeros(*t))

# A predicate value in [0, 1] as a fraction, not always reduced, with up to
# two leading zeros in each numeral.
predicate_values = st.integers(1, 6).flatmap(
    lambda den: st.tuples(st.integers(0, den), st.just(den), st.integers(0, 2), st.integers(0, 2))
).map(lambda v: f"{'0' * v[2]}{v[0]}/{'0' * v[3]}{v[1]}")

# Predicates over atoms and pairs; the keys are distinct.
predicate_texts = st.lists(st.tuples(element_texts, predicate_values), min_size=1, max_size=4,
                           unique_by=lambda entry: entry[0]).map(
    lambda entries: "(" + ", ".join(f"{key}:{v}" for key, v in entries) + ")")


@settings(max_examples=300)
@given(st.one_of(padded_value_texts, predicate_texts))
@example("((a,0):1/2, (0,a):02/04, 7:0)")
@example("[02 <01/02 007, 1/2 07>, 00 a]")
@example("([1 a],<1/2 u, 1/2 v>)")
def test_text_round_trip(text):
    value = parse_value(text)
    printed = format_value(value)
    assert parse_value(printed) == value
    assert format_value(parse_value(printed)) == printed


# Channel tables: keys of distinct value, each mapped to a distribution.
# A key may be any element: an atom, a pair, a multiset or a distribution.
channel_entries = st.lists(
    st.tuples(value_texts, st.lists(st.tuples(value_texts, st.integers(1, 3)),
                                    min_size=1, max_size=3).map(dist_text)),
    min_size=1, max_size=4, unique_by=lambda entry: parse_value(entry[0]))


def channel_text(entries) -> str:
    return "{" + ", ".join(f"{key}: {d}" for key, d in entries) + "}"


@settings(max_examples=200)
@given(channel_entries, st.randoms(use_true_random=False))
@example([("(a,0)", "<1/2 a, 1/2 b>"), ("b", "<1/1 [2 a]>"), ("0", "<1/1 00>")], random.Random(0))
@example([("[1 a]", "<1/2 [1 u], 1/2 [1 v]>"), ("[1 b]", "<1/1 [1 u]>")], random.Random(0))
def test_channels_are_values(entries, rng):
    c = parse_channel(channel_text(entries))
    shuffled = parse_channel(channel_text(rng.sample(entries, len(entries))))
    assert c == shuffled and hash(c) == hash(shuffled)
    assert format_value(c) == format_value(shuffled)
    assert parse_channel(format_value(c)) == c
    table = {x: c(x) for x in c.domain}
    x = rng.choice(c.domain.elements)
    changed = dict(table)
    changed[x] = unit("b") if table[x] == unit("a") else unit("a")
    assert c != Channel.from_mapping(changed)
    assert c != Channel.from_mapping({**table, "zz": unit("a")})
    if len(table) > 1:
        assert c != Channel.from_mapping({y: d for y, d in table.items() if y != x})
    for other in (table[x], unit(x), x):
        assert c != other and other != c


@settings(max_examples=100)
@given(channel_entries, channel_entries, st.integers(0, 2))
@example([("a", "<1/2 u, 1/2 v>"), ("b", "<1/1 u>")], [("[1 a]", "<1/1 [2 b]>")], 1)
def test_channels_the_library_builds_parse_back(entries, more, k):
    # Lifted channels have multisets for keys, tensors have pairs, and the
    # empty channel prints as {}.
    f, g = parse_channel(channel_text(entries)), parse_channel(channel_text(more))
    for c in (lifted_map(f, k), ctensor(f, g), ctensor(g, f), Channel.from_mapping({})):
        text = format_value(c)
        assert parse_channel(text) == c
        assert parse_value(text) == c


@settings(max_examples=100)
@given(dists("ab"), dists("uv", DENS_57), st.integers(0, 2))
def test_tensors_of_draws_parse_back(omega, rho, k):
    # A distribution over pairs of multisets; pairs of generated values
    # are in test_text_round_trip.
    v = dtensor(multinomial(omega, k), multinomial(rho, k))
    assert parse_value(format_value(v)) == v


@settings(max_examples=100)
@given(channel_entries, st.randoms(use_true_random=False))
def test_a_raising_kernel_makes_equality_and_hash_raise(entries, rng):
    c = parse_channel(channel_text(entries))
    bad = rng.choice(c.domain.elements)
    runs = []

    def kernel(x):
        if x == bad:
            runs.append(x)
            raise DomainError("no output here")
        return c(x)

    f = Channel(c.domain, kernel)
    for _ in range(2):
        with pytest.raises(DomainError, match="^no output here$"):
            bool(f == c)
        with pytest.raises(DomainError, match="^no output here$"):
            hash(f)
    # Nothing was stored at the raising point, so each attempt ran the kernel.
    assert len(runs) == 4


def test_a_raising_kernel_makes_pickling_and_copies_raise():
    runs = []

    def kernel(x):
        if x == "b":
            runs.append(x)
            raise DomainError("no output here")
        return unit(x)

    f = Channel(["a", "b"], kernel)
    for store in (pickle.dumps, copy.copy, copy.deepcopy):
        with pytest.raises(DomainError, match="^no output here$"):
            store(f)
    # Nothing was stored at the raising point, so each attempt ran the kernel.
    assert len(runs) == 3


# Channels pickle and copy through their filled table, as ``from_mapping``.
@settings(max_examples=200)
@given(st.one_of(value_texts, predicate_texts, channel_entries.map(channel_text)))
@example("((a,0):1/2, (0,a):02/04, 7:0)")
@example("{}")
@example("{[1 a]: <1/2 [1 u], 1/2 [1 v]>, (a,<1 b>): <1 (u,u)>}")
def test_values_survive_pickling_and_deep_copies(text):
    value = parse_value(text)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)


@pytest.mark.parametrize("elements", [
    ["b", "a", "10", "9"],
    [Pair("a", "u"), Pair("b", Pair("0", "1"))],
    [Multiset({"a": 2}), Multiset(), Multiset({Pair("a", "u"): 1, "b": 3})],
], ids=["atoms", "pairs", "multisets"])
def test_spaces_survive_pickling_and_copies(elements):
    space = Space(elements)
    copies = [pickle.loads(pickle.dumps(space, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in [*copies, copy.deepcopy(space), copy.copy(space)]:
        assert type(again) is Space
        assert again == space and hash(again) == hash(space)
        assert again.elements == space.elements
        assert all(x in again for x in elements)


def test_reading_a_support_builds_no_public_value(monkeypatch):
    # Nothing sorted is kept, so ``support`` sorts the elements alone and
    # builds no public value, such as a distribution's ``Fraction`` weights.
    built = []
    for cls in (_FiniteMap, Dist):
        def counted(self, stored, public=cls._public):
            built.append(stored)
            return public(self, stored)
        monkeypatch.setattr(cls, "_public", counted)
    omega = Dist({"b": Fraction(1, 3), "a": Fraction(2, 3)})
    space = Space(["b", "a"])
    assert omega.support == space.elements == ("a", "b") and list(space) == ["a", "b"]
    assert built == []
    assert omega.entries == omega.entries == (("a", Fraction(2, 3)), ("b", Fraction(1, 3)))
    assert built == [2, 1, 2, 1]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(ATOMS), max_size=12), st.integers(0, 3))
@example(["b", "a", "b", "007", "7", "a"], 2)
def test_a_space_is_the_set_of_its_members(xs, k):
    s = Space(xs)
    again = Space(reversed(xs))
    assert s == again and hash(s) == hash(again)
    assert s.elements == tuple(sorted(set(xs), key=elem_key))
    assert len(s) == len(set(xs))
    for x in ATOMS:
        assert (x in s) == (x in xs)
    assert [] not in s
    copies = [pickle.loads(pickle.dumps(s, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.deepcopy(s)]:
        assert type(twin) is Space
        assert twin == s and hash(twin) == hash(s) and twin.elements == s.elements
    assert str(s) == repr(s) == f"Space({list(s.elements)!r})"
    assert s.power(k) == list(itertools.product(s.elements, repeat=k))


@settings(max_examples=200)
@given(values, values, values, values)
@example("a", "b", "a", "b")
def test_pairs_are_values_of_their_own(x, y, u, v):
    p, q = Pair(x, y), Pair(u, v)
    assert not isinstance(p, tuple)
    for t in [(x, y), (y, x)]:
        assert p != t and t != p and not p == t and not t == p
    assert (p == q) == (x == u and y == v)
    if p == q:
        assert hash(p) == hash(q)
    assert hash(p) == hash(Pair(x, y))
    assert ((elem_key(p) < elem_key(q))
            == ((elem_key(x), elem_key(y)) < (elem_key(u), elem_key(v))))
    with pytest.raises(AttributeError):
        p.fst = u
    assert p.fst is x


@settings(max_examples=150)
@given(st.one_of(dists("abc"), dists("abc", DENS_57)), dists("uvw", DENS_57),
       st.lists(st.one_of(dists("ab"), dists("uv", DENS_57)), max_size=3), st.integers(0, 3),
       st.dictionaries(st.sampled_from("abc"), st.integers(1, 2)).map(Multiset), values)
def test_trusted_dists_are_normalized_and_reduced(omega, rho, omegas, k, m, x):
    # The rebuild goes through the checking builder ``Dist._over``, which raises on a
    # sum other than one and divides out a common factor.
    for d in [unit(x), dtensor(omega, rho), big_tensor(omegas), iid(omega, k),
              multinomial(omega, k), arrange(m)]:
        again = Dist._over(d._map, d._map.values(), d._total)
        assert again == d and again._total == d._total
