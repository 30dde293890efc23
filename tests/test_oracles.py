import pytest

from mulprob.dist import unit
from mulprob.elements import Space
from mulprob.errors import DomainError
from mulprob.multiset import Multiset, enumerate_multisets
from mulprob.oracles import msum_channel, mzip_arrangements

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
