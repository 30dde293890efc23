"""The library's named probabilistic channels.

Draws with replacement (multinomial) and without (hypergeometric), single
draw-and-delete, uniform arrangement of a multiset into sequences, and
the probabilistic zip of two equal-size multisets.

Each channel is computed from a closed formula over its own support, so
its cost follows the size of its output: the draw distributions enumerate
the multisets they weigh, and ``mzip`` enumerates contingency tables
rather than pairs of arrangements.  All three enumerate through the one
walk over bounded count vectors in ``mulprob.multiset``: ``multinomial``
with every cap the draw size, ``hypergeometric`` with the urn's counts as
caps, and each ``mzip`` row with the capacity its columns have left.
Each outcome multiset is built once, by the trusted ``Multiset._of`` that
``Multiset`` and ``Dist`` share, and is hashed and inserted once, into the
output's one dict: the channels that reduce their weights hand outcomes
and numerators to ``Dist._over`` as two parallel lists, and
``draw_delete``, whose reduction is the gcd of the urn's counts, builds
its reduced dict directly.  Chains of channels, such as repeated
draw-and-delete, run through ``dist.bind``, which merges each kernel
output as it returns, so no output outlives its merge.
The literal definitions survive in ``mulprob.oracles`` and the test suite
as independent cross-checks.
"""

from math import comb, gcd
from .combinatorics import multichoose
from .dist import Dist, flrn
from .elements import Pair, _kind
from .errors import DomainError, _check_size, check_cells
from .multiset import (
    Multiset,
    _bounded_counts,
    _sub_multiset_count,
    accumulate,
    enumerate_arrangements,
)


def arrange(m: Multiset) -> Dist:
    """Uniform distribution over the distinct sequences accumulating to m."""
    seqs = enumerate_arrangements(_kind(m, Multiset, "arrange got"))
    return Dist._of(dict.fromkeys(seqs, 1), len(seqs))  # reduced: every numerator is 1


def multinomial(omega: Dist, k: int) -> Dist:
    """Distribution of size-k draws with replacement from ``omega``.

    A draw is given by its nonzero ``(element, count)`` pairs, as
    ``_bounded_counts`` yields them; its numerator over ``omega._total ** k``
    is the multiset coefficient times the product of the element
    numerators, each raised to its count.  The coefficient
    ``k! / prod n!`` is a product of binomials over the running count, so
    no factorial of ``k`` is taken: a draw from a point mass costs nothing
    for any ``k``.  The budget counts the draws.
    """
    _check_size(k, "draw size")
    nums = _kind(omega, Dist, "multinomial got")._map
    check_cells(multichoose(len(nums), k), f"multisets of size {k} over {len(nums)} elements")
    out = {}
    # The draws are walked here rather than taken as a one-member ``pml``
    # product, whose packing and unpacking of every draw measured slower
    # across the law sweep.
    for draw in _bounded_counts([(x, k) for x in nums], k):
        coeff, w, drawn = 1, 1, 0
        for x, n in draw:
            drawn += n
            coeff *= drawn if n == 1 else comb(drawn, n)
            w *= nums[x] ** n
        out[Multiset._of(dict(draw), k)] = coeff * w
    # Reduced: the pure draw ``k x`` weighs ``n_x ** k``, and the ``n_x`` share no factor.
    return Dist._of(out, omega._total ** k)


def hypergeometric(urn: Multiset, k: int) -> Dist:
    """Distribution of size-k draws without replacement from the urn.

    A draw takes ``phi(x)`` of the ``urn(x)`` copies of each ``x``; its
    weight is the product of ``C(urn(x), phi(x))`` over ``C(|urn|, k)``,
    each binomial read from one table per element that stops at ``k``,
    the most a draw takes.  The budget counts the draws exactly.
    """
    n = _kind(urn, Multiset, "hypergeometric got").size
    if _check_size(k, "draw size") > n:
        raise DomainError(f"cannot draw {k} from an urn of size {n}")
    caps = urn._map
    check_cells(_sub_multiset_count(caps.items(), k), f"size-{k} sub-multisets of a size-{n} urn")
    combs = {x: [comb(cap, t) for t in range(min(cap, k) + 1)] for x, cap in caps.items()}
    outcomes, nums = [], []
    for draw in _bounded_counts(urn.entries, k):
        w = 1
        for x, t in draw:
            w *= combs[x][t]
        outcomes.append(Multiset._of(dict(draw), k))
        nums.append(w)
    return Dist._over(outcomes, nums, comb(n, k))


def draw_delete(urn: Multiset) -> Dist:
    """Remove one element, chosen with probability proportional to count."""
    size = _kind(urn, Multiset, "draw_delete got").size
    if size == 0:
        raise DomainError("cannot draw from an empty urn")
    counts = urn._map
    g = gcd(*counts.values())
    out = {}
    for x, n in counts.items():
        left = dict(counts)
        if n == 1:
            del left[x]
        else:
            left[x] = n - 1
        out[Multiset._of(left, size - 1)] = n // g
    # Reduced: the counts sum to the size, so their gcd ``g`` is their gcd with it.
    return Dist._of(out, size // g)


def ppr(xs: tuple) -> Dist:
    """Uniform mixture of the single-position deletions of a sequence."""
    if len(_kind(xs, tuple, "ppr got")) == 0:
        raise DomainError("cannot project away a position of the empty sequence")
    return flrn(accumulate([xs[:i] + xs[i + 1:] for i in range(len(xs))]))


def zip_tuples(xs: tuple, ys: tuple) -> tuple:
    """Positionwise pairing of two equal-length sequences."""
    if len(_kind(xs, tuple, "zip_tuples got")) != len(_kind(ys, tuple, "zip_tuples got")):
        raise DomainError(f"zip length mismatch: {len(xs)} vs {len(ys)}")
    return tuple(Pair(x, y) for x, y in zip(xs, ys))


def mzip(phi: Multiset, psi: Multiset) -> Dist:
    """Probabilistic zip of two equal-size multisets.

    By definition every pair of arrangements of the inputs is zipped
    positionwise and re-accumulated, each pair contributing uniformly
    (``oracles.mzip_arrangements`` runs that route).  Counting the pairs
    that zip to a multiset ``tau`` on pairs gives the closed form used
    here: the support is the set of contingency tables whose row margins
    are ``phi`` and whose column margins are ``psi``, and ``tau`` weighs
    its own coefficient, the count ``K! / prod tau(x,y)!`` of sequences of
    pairs accumulating to it, over the ``coefficient(phi) *
    coefficient(psi)`` pairs of arrangements.  Dividing both by
    ``coefficient(phi) = K! / prod phi(x)!`` leaves the product over the
    rows ``x`` of each row's own coefficient ``phi(x)! / prod_y
    tau(x,y)!``, over ``coefficient(psi)``: the same weight over a smaller
    denominator.  Every coefficient is a product of binomials over the
    running count, as in ``multinomial``, so no factorial is taken.

    Tables are built row by row over the support of ``phi``; each row walks
    the splits within the capacity the columns have left, and the last row
    takes all of it, so the cost is one step per table and nonzero cell.
    The budget counts cells: the tables, bounded by the product of
    ``multichoose(|supp psi|, phi(x))`` over all rows but the last, times
    the nonzero cells one table can have, at most its rows times its
    columns and at most ``K``.
    """
    if _kind(phi, Multiset, "mzip got").size != _kind(psi, Multiset, "mzip got").size:
        raise DomainError(f"mzip size mismatch: {phi.size} vs {psi.size}")
    rows, cols = phi.entries, psi.entries
    bound = 1
    for _, r in rows[:-1]:
        bound *= multichoose(len(cols), r)
    check_cells(bound * min(len(rows) * len(cols), phi.size), "cells of mzip contingency tables")

    cells = [[Pair(x, y) for y, _ in cols] for x, _ in rows]
    # A partial table: its nonzero cells, the product of its rows'
    # coefficients, and the capacity each column has left.
    tables = [((), 1, dict(cols))]
    for row, (_, r) in zip(cells, rows):
        grown = []
        for taken, coeff, caps in tables:
            for split in _bounded_counts(zip(row, caps.values()), r):
                left, c, n = dict(caps), coeff, 0
                for cell, t in split:
                    left[cell.snd] -= t
                    n += t
                    c *= n if t == 1 else comb(n, t)
                grown.append((taken + split, c, left))
        tables = grown
    size = phi.size
    return Dist._over([Multiset._of(dict(taken), size) for taken, _, _ in tables],
                      [c for _, c, _ in tables], psi.coefficient())
