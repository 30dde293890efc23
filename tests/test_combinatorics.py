import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulprob.combinatorics import multichoose
from mulprob.errors import DomainError


class TestMultichoose:
    def test_counts_small_multisets(self):
        # All size-3 multisets over two symbols, listed by hand.
        assert multichoose(2, 3) == 4

    def test_size_zero(self):
        for n in range(5):
            assert multichoose(n, 0) == 1

    def test_two_over_two(self):
        # {2a}, {1a 1b}, {2b}
        assert multichoose(2, 2) == 3

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            multichoose(0, 1)

    def test_closed_form(self):
        for n in range(1, 6):
            for k in range(7):
                assert multichoose(n, k) == math.comb(n + k - 1, k)


small_ints = st.integers(min_value=-30, max_value=30)
positive_ints = st.integers(min_value=1, max_value=30)


@st.composite
def rationals(draw):
    return Fraction(draw(small_ints), draw(positive_ints))


@settings(max_examples=200)
@given(rationals(), rationals(), rationals())
def test_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200)
@given(rationals(), rationals())
def test_rational_exact_cancellation(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@settings(max_examples=200)
@given(rationals())
def test_rational_lowest_terms(q):
    assert math.gcd(q.numerator, q.denominator) == 1
    assert q.denominator > 0
