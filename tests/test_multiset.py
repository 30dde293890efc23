import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mulprob import multiset
from mulprob.combinatorics import multichoose
from mulprob.elements import Pair, Space, elem_key
from mulprob.errors import DomainError, ResourceLimitError
from mulprob.multiset import (
    Multiset,
    _bounded_counts,
    _stepped_arrangements,
    _sub_multiset_count,
    accumulate,
    enumerate_arrangements,
    enumerate_multisets,
)


def ms(**counts):
    return Multiset(counts)


class TestBasics:
    def test_size(self):
        assert ms(a=3, b=2).size == 5
        assert Multiset().size == 0
        assert ms(x=7).size == 7

    def test_canonical_storage(self):
        assert Multiset([("b", 2), ("a", 3)]) == Multiset([("a", 3), ("b", 2)])
        assert Multiset({"a": 0, "b": 1}) == ms(b=1)
        assert ms(a=1)["a"] == 1
        assert ms(a=1)["b"] == 0

    def test_duplicate_entries_merge(self):
        assert Multiset([("a", 1), ("a", 1)]) == ms(a=2)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            Multiset({"a": -1})

    def test_add(self):
        assert ms(a=2) + ms(a=1, b=1) == ms(a=3, b=1)
        phi = ms(a=1, b=4)
        assert phi + Multiset() == phi
        assert ms(a=1) + ms(b=1) == ms(a=1, b=1)

    def test_tensor(self):
        left = ms(a=3, b=2, c=1)
        right = Multiset({"0": 2, "1": 4})
        expected = Multiset(
            {
                Pair("a", "0"): 6,
                Pair("a", "1"): 12,
                Pair("b", "0"): 4,
                Pair("b", "1"): 8,
                Pair("c", "0"): 2,
                Pair("c", "1"): 4,
            }
        )
        assert left.tensor(right) == expected

    def test_tensor_point_and_empty(self):
        phi = ms(a=2, b=1)
        assert phi.tensor(ms(y=1)) == Multiset({Pair(e, "y"): n for e, n in phi.entries})
        assert Multiset().tensor(phi) == Multiset()

    def test_tensor_is_charged_to_the_budget(self, monkeypatch):
        left = Multiset({f"x{i}": 1 for i in range(300)})
        right = Multiset({f"y{i}": 2 for i in range(300)})
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        with pytest.raises(ResourceLimitError) as info:
            left.tensor(right)
        assert info.value.op == "tensor product support"
        assert info.value.needed == 90000

    def test_map_elements(self):
        assert ms(a=3, b=2).map_elements(lambda _: "c") == ms(c=5)
        phi = ms(a=1, b=2)
        assert phi.map_elements(lambda x: x) == phi
        pairs = Multiset({Pair("a", "0"): 2, Pair("b", "0"): 1})
        assert pairs.map_elements(lambda p: p.fst) == ms(a=2, b=1)

    def test_coefficient(self):
        assert ms(a=2, b=3).coefficient() == 10
        assert ms(x=9).coefficient() == 1
        perms = set(itertools.permutations("abc"))
        assert ms(a=1, b=1, c=1).coefficient() == len(perms)

class TestAccumulate:
    def test_counts_occurrences(self):
        assert accumulate("aaba") == ms(a=3, b=1)

    def test_empty(self):
        assert accumulate(()) == Multiset()

    def test_order_insensitive(self):
        assert accumulate("ba") == ms(a=1, b=1)


class TestEnumerateMultisets:
    def test_two_symbols_size_three(self):
        got = enumerate_multisets(Space(["a", "b"]), 3)
        assert got == [ms(a=3), ms(a=2, b=1), ms(a=1, b=2), ms(b=3)]

    def test_size_zero(self):
        assert enumerate_multisets(Space(["a", "b"]), 0) == [Multiset()]

    def test_singletons(self):
        got = enumerate_multisets(Space(["a", "b", "c"]), 1)
        assert got == [ms(a=1), ms(b=1), ms(c=1)]

    def test_empty_space_rejected(self):
        with pytest.raises(DomainError):
            enumerate_multisets(Space([]), 1)

    def test_counts_and_uniqueness(self):
        letters = ["a", "b", "c", "d"]
        for n in range(1, 5):
            space = Space(letters[:n])
            for k in range(7):
                got = enumerate_multisets(space, k)
                assert len(got) == multichoose(n, k)
                assert len(set(got)) == len(got)
                assert all(m.size == k for m in got)

    def test_emitted_in_canonical_element_order(self):
        from mulprob.elements import elem_key

        got = enumerate_multisets(Space(["a", "b", "c"]), 3)
        keys = [elem_key(m) for m in got]
        assert keys == sorted(keys)

    def test_cell_budget(self, monkeypatch):
        monkeypatch.setenv("MULPROB_MAX_CELLS", "5")
        with pytest.raises(ResourceLimitError):
            enumerate_multisets(Space(["a", "b", "c"]), 5)


class TestEnumerateArrangements:
    def test_listed_sequences(self):
        got = enumerate_arrangements(ms(a=1, b=2))
        assert got == [("a", "b", "b"), ("b", "a", "b"), ("b", "b", "a")]

    def test_constant(self):
        assert enumerate_arrangements(ms(x=4)) == [("x",) * 4]

    def test_ten_sequences_of_length_five(self):
        got = enumerate_arrangements(ms(a=2, b=3))
        assert len(got) == 10
        assert all(len(s) == 5 for s in got)

    def test_count_matches_coefficient(self):
        letters = ["a", "b", "c"]
        for n in range(1, 4):
            space = letters[:n]
            for k in range(6):
                for m in enumerate_multisets(Space(space), k):
                    seqs = enumerate_arrangements(m)
                    assert len(seqs) == m.coefficient()
                    assert len(set(seqs)) == len(seqs)
                    assert all(accumulate(s) == m for s in seqs)

    @pytest.mark.parametrize("counts, stepped", [
        ({"a": 3, "b": 3, "c": 2, "d": 2}, False),
        ({"a": 8, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}, False),
        ({"a": 2000}, True),
        ({"a": 400, "b": 1}, True),
        ({"a": 60, "b": 2}, True),
    ])
    def test_long_runs_step_instead_of_sharing(self, monkeypatch, counts, stepped):
        # A large size over few elements makes many levels of few
        # sequences; their work would pass the result's, so the
        # sequences are stepped through instead.
        m = Multiset(counts)
        steps = []
        monkeypatch.setattr(multiset, "_stepped_arrangements",
                            lambda m: steps.append(m) or _stepped_arrangements(m))
        got = enumerate_arrangements(m)
        assert len(got) == m.coefficient()
        assert steps == ([m] if stepped else [])
        assert got == _stepped_arrangements(m)


# Identifiers, numerals (``0`` and ``00`` are equal in value) and pairs.
MIXED_ATOMS = ["a", "b", "z1", "0", "00", "7", Pair("a", "0"), Pair("0", Pair("b", "b"))]


@settings(max_examples=150)
@given(st.lists(st.sampled_from(MIXED_ATOMS), max_size=7)
       .filter(lambda xs: len(set(xs)) <= 4).map(accumulate))
def test_arrangements_are_the_sorted_distinct_permutations(m):
    xs = [x for x, n in m.entries for _ in range(n)]
    want = sorted(set(itertools.permutations(xs)), key=lambda seq: [elem_key(x) for x in seq])
    assert enumerate_arrangements(m) == want
    assert _stepped_arrangements(m) == want


elements = st.sampled_from(["a", "b", "c"])
multisets = st.dictionaries(elements, st.integers(min_value=0, max_value=4)).map(Multiset)
sequences = st.lists(elements, max_size=5)


@settings(max_examples=150)
@given(multisets, multisets)
def test_sizes_add_and_multiply(phi, psi):
    assert (phi + psi).size == phi.size + psi.size
    assert phi.tensor(psi).size == phi.size * psi.size


@settings(max_examples=150)
@given(sequences, st.randoms(use_true_random=False))
def test_accumulate_permutation_stable(xs, rng):
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert accumulate(xs) == accumulate(shuffled)


@settings(max_examples=150)
@given(multisets)
def test_functoriality(phi):
    f = {"a": "b", "b": "b", "c": "a"}
    g = {"a": "c", "b": "a", "c": "a"}
    composed = phi.map_elements(lambda x: g[f[x]])
    staged = phi.map_elements(f.__getitem__).map_elements(g.__getitem__)
    assert composed == staged
    assert phi.map_elements(lambda x: x) == phi
    assert phi.map_elements(f.__getitem__).size == phi.size


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=5), st.data())
def test_bounded_counts_is_the_filtered_product(caps, data):
    # Every count vector under the caps with sum k, highest index compared
    # first, given by its nonzero counts; zero caps and infeasible k included.
    k = data.draw(st.integers(min_value=-1, max_value=sum(caps) + 1))
    vectors = [v for v in itertools.product(*(range(c + 1) for c in caps)) if sum(v) == k]
    vectors.sort(key=lambda v: v[::-1])
    got = list(_bounded_counts(list(enumerate(caps)), k))
    assert got == [tuple((i, n) for i, n in enumerate(v) if n) for v in vectors]
    assert all(n > 0 for counts in got for _, n in counts)
    if k >= 0:
        if caps and all(c >= k for c in caps):
            assert len(got) == multichoose(len(caps), k)
        assert len(got) == _sub_multiset_count(enumerate(caps), k)


def test_coefficients_partition_sequence_space():
    # Collapsing is a surjection from length-K sequences, so the
    # coefficients over all size-K multisets must add up to |X|^K.
    letters = ["a", "b", "c"]
    for n in range(1, 4):
        for k in range(6):
            total = sum(m.coefficient() for m in enumerate_multisets(Space(letters[:n]), k))
            assert total == n ** k
