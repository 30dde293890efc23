"""Exact integer kernels.

Everything downstream computes with arbitrary-precision values: ``int``
for counts and multiplicities, ``fractions.Fraction`` for probabilities.
There is no floating point anywhere in the library; equality of
distributions is decided exactly.

Binomials are ``math.comb`` itself, called where they are needed, with no
memo table: for the small arguments used here, a cache lookup costs as
much as the computation itself.
"""

import math

from .errors import DomainError, _check_size


def multichoose(n: int, k: int) -> int:
    """Number of k-sized multisets over an n-element set: C(n+k-1, k).

    Undefined for n = 0 with k > 0: there is no multiset of positive size
    over the empty set.
    """
    _check_size(n, "element count")
    if _check_size(k, "multiset size") == 0:
        return 1
    if n == 0:
        raise DomainError("no multisets of positive size over the empty set")
    return math.comb(n + k - 1, k)
