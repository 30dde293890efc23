from fractions import Fraction

import pytest

from mulprob.channels import multinomial
from mulprob.dist import Dist, unit
from mulprob.elements import Pair, Space
from mulprob.errors import DomainError, ResourceLimitError
from mulprob.multiset import Multiset, enumerate_multisets
from mulprob.oracles import (
    monoid_algebra,
    msum_channel,
    mzip_arrangements,
    permutation_mix,
    pml_def1,
    pml_def4,
)
from mulprob.pml import monoid_sum

F = Fraction
AB = Space(["a", "b"])


def ms(**counts):
    return Multiset(counts)


class TestMsum:
    def test_disjoint(self):
        assert msum_channel(ms(a=2), ms(b=1)) == unit(ms(a=2, b=1))

    def test_empty_right(self):
        phi = ms(a=1, b=1)
        assert msum_channel(phi, Multiset()) == unit(phi)

    def test_overlapping(self):
        assert msum_channel(ms(a=1, b=1), ms(a=1)) == unit(ms(a=2, b=1))

    def test_always_deterministic(self):
        for k in range(4):
            for l in range(4):
                for phi in enumerate_multisets(AB, k):
                    for psi in enumerate_multisets(AB, l):
                        assert msum_channel(phi, psi) == unit(phi + psi)


class TestMzipArrangements:
    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            mzip_arrangements(ms(a=1), ms(a=1, b=1))

    def test_empty(self):
        assert mzip_arrangements(Multiset(), Multiset()) == unit(Multiset())


class TestPermutationMix:
    def test_permutations_are_charged_before_they_are_listed(self, monkeypatch):
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        with pytest.raises(ResourceLimitError) as info:
            permutation_mix(tuple("abcdefghi"))
        assert info.value.needed == 362880
        assert len(permutation_mix(tuple("abcd")).support) == 24


class TestPmlDefinitions:
    OMEGA = Dist({"a": F(1, 3), "b": F(2, 3)})
    PSI = Multiset({OMEGA: 2, Dist({"a": F(3, 4), "b": F(1, 4)}): 1})
    EXPECTED = Dist({
        Multiset({"a": 3}): F(1, 12),
        Multiset({"a": 2, "b": 1}): F(13, 36),
        Multiset({"a": 1, "b": 2}): F(4, 9),
        Multiset({"b": 3}): F(1, 9),
    })

    def test_def1(self):
        assert pml_def1(self.PSI) == self.EXPECTED

    def test_def4(self):
        assert pml_def4(self.PSI) == self.EXPECTED


class TestMonoidAlgebra:
    def test_algebra_on_empty(self):
        assert monoid_algebra(Multiset()) == unit(Multiset())

    def test_algebra_counts_multiplicities(self):
        d = multinomial(Dist({"a": F(1, 3), "b": F(2, 3)}), 1)
        assert monoid_algebra(Multiset({d: 2})) == monoid_sum(d, d)

    def test_non_distribution_member_in_ket_notation(self):
        for member, text in [("a", "a"), (Pair("a", "b"), "(a,b)"), (Multiset({"a": 2}), "[2 a]")]:
            with pytest.raises(DomainError) as err:
                monoid_algebra(Multiset({member: 1}))
            assert str(err.value) == f"expected a multiset of distributions, found {text}, not a Dist"
