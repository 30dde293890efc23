"""Finite multisets with natural-number multiplicities.

A multiset is one dict from elements to positive counts, in no particular
order, and their sum, its size (``elements._FiniteMap``).  Two multisets
are equal exactly when they are equal as functions from elements to
counts, so ``==`` is the semantic equality the law checks rely on.

The module also owns the enumerations the rest of the library is built
on.  One walk, ``_bounded_counts``, yields the count vectors of a fixed
sum under caps, stepping only through nonzero counts; it gives all
multisets of a fixed size over a finite space (every cap the size), the
draws without replacement from an urn (the urn's counts as caps) and the
rows of ``mzip``'s contingency tables (the capacity the columns have
left).  ``_sub_multiset_count`` counts that family for the budget.  The
other enumeration lists all distinct sequences that collapse onto a given
multiset, building each suffix once for all the prefixes that share it,
or stepping from each sequence to the next where sharing costs more than
the sequences themselves.
"""

from bisect import bisect_right
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .combinatorics import multichoose
from .elements import (
    _MULTISET, Elem, Space, _FiniteMap, _function, _kind, _pairs, _set_key, _show, elem_key)
from .errors import DomainError, check_cells


class Multiset(_FiniteMap):
    """An immutable map from elements to positive multiplicities."""

    __slots__ = ()

    def __init__(self, data: Mapping[Elem, int] | Iterable[tuple[Elem, int]] = ()):
        counts: dict[Elem, int] = {}
        for elem, n in _pairs(data):
            if type(n) is not int:
                raise DomainError(f"multiplicity must be an integer: {n!r}")
            if n > 0:
                counts[elem] = counts.get(elem, 0) + n
            elif n:
                raise DomainError(f"negative multiplicity {n} for {_show(elem)}")
        self._store(counts, sum(counts.values()))

    # -- basic views ------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of element occurrences."""
        return self._total

    def __getitem__(self, elem: Elem) -> int:
        return self._map.get(elem, 0)

    def __bool__(self) -> bool:
        return bool(self._map)

    def _element_sort_key(self) -> tuple:
        # Colexicographic order on multiplicity vectors: compare counts at
        # the largest elements first, missing entries counting as zero.
        # Realized as lexicographic comparison of the reversed entry list.
        if self._key is None:
            key = (_MULTISET, tuple([(elem_key(e), n) for e, n in reversed(self.entries)]))
            _set_key(self, key)
        return self._key

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Multiset") -> "Multiset":
        """Pointwise sum of multiplicities."""
        if not isinstance(other, Multiset):
            return NotImplemented
        counts = dict(self._map)
        for e, n in other._map.items():
            counts[e] = counts.get(e, 0) + n
        return Multiset._of(counts, self._total + other._total)

    def tensor(self, other: "Multiset") -> "Multiset":
        """Parallel product on pair elements; multiplicities multiply."""
        other = _kind(other, Multiset, "tensor got")
        return Multiset._of(self._tensor(other), self._total * other._total)

    def map_elements(self, f: Callable[[Elem], Elem]) -> "Multiset":
        """Pushforward along a function; collided images merge, size is kept."""
        return Multiset._of(self._image(_function(f, "map_elements got")), self._total)

    def coefficient(self) -> int:
        """Number of distinct sequences that accumulate to this multiset.

        It is ``size! / prod n!``, taken as a product of binomials over the
        running count, so no factorial of the size is computed.
        """
        out, placed = 1, 0
        for n in self._map.values():
            placed += n
            out *= comb(placed, n)
        return out


def accumulate(xs: Sequence[Elem]) -> Multiset:
    """Collapse a sequence to the multiset of its element counts."""
    return Multiset((x, 1) for x in xs)


def _bounded_counts(caps: Iterable[tuple], k: int) -> Iterator[tuple]:
    """Every count vector under ``caps`` that sums to ``k``, in colex order.

    ``caps`` pairs distinct labels with their caps, as the entries of a
    multiset do, so the vectors are its size-k sub-multisets.  Each is
    given by its nonzero ``(label, count)`` pairs in the order of ``caps``,
    ready to build a ``Multiset``; ``enumerate`` gives index labels.
    Colexicographic order compares the counts at the last label first, so
    the first vector fills the first labels up to their caps.  One step
    moves one unit up to the first label that has room above a nonzero
    count, then refills the labels before it, from the first, with what is
    left.  A step only looks at the counts it moves and copies the refilled
    ones as one slice; labels with a zero cap never enter the walk, so the
    cost follows the vectors yielded.  They are yielded, not listed, so
    each is dropped as soon as its caller has read it.
    """
    full = []  # each label with room, filled up
    reach = [0]  # ``reach[p]``: what the first ``p`` of them hold
    for filled in caps:
        if filled[1]:
            full.append(filled)
            reach.append(reach[-1] + filled[1])
    if not 0 <= k <= reach[-1]:
        return
    size = len(full)
    # ``counts`` holds the nonzero counts in the order of ``full``.  Each
    # round puts ``n`` units in place of the first ``r`` counts (the first
    # ``p`` labels full, then at most one partial), yields the vector and
    # takes a step.  ``low`` is the place in ``full`` of the first count
    # when nothing was refilled.  A full count is always the very pair from
    # ``full``, so it is told by identity, and labels are compared by
    # identity only: no label's ``__eq__`` runs.
    counts: list[tuple] = []
    r, n, low = 0, k, 0
    while True:
        p = bisect_right(reach, n) - 1
        refill = full[:p]
        if n > reach[p]:
            refill.append((full[p][0], n - reach[p]))
        counts[:r] = refill
        yield tuple(counts)
        if not counts:
            break
        # The first count and the full ones right above it move: one unit
        # to the next label with room, the rest back to the bottom.
        if p:
            r, n = p, reach[p] - 1
        else:
            r, n, p = 1, counts[0][1] - 1, low + 1
        while p < size and r < len(counts) and counts[r] is full[p]:
            n += full[p][1]
            r += 1
            p += 1
        if p == size:
            break
        x, cap = filled = full[p]
        if r < len(counts) and counts[r][0] is x:
            t = counts[r][1] + 1
            counts[r] = filled if t == cap else (x, t)
        else:
            counts.insert(r, filled if cap == 1 else (x, 1))
        low = 0 if n else p


def _sub_multiset_count(caps: Iterable[tuple[Elem, int]], k: int) -> int:
    """Number of size-k sub-multisets of the labelled ``caps``.

    The coefficient of ``t^k`` in the product over the caps of
    ``1 + t + ... + t^cap``, one polynomial multiplication per cap.
    """
    coeffs = [1] + [0] * k
    for _, avail in caps:
        window = 0
        out = []
        for j, c in enumerate(coeffs):
            window += c
            if j > avail:
                window -= coeffs[j - avail - 1]
            out.append(window)
        coeffs = out
    return coeffs[k]


def enumerate_multisets(space: Space | Iterable[Elem], k: int) -> list[Multiset]:
    """All multisets of size ``k`` over ``space``, in canonical order.

    The order is the colexicographic one on multiplicity vectors, which is
    also the order in which multisets compare as elements.  The result has
    exactly ``multichoose(len(space), k)`` entries.
    """
    if not isinstance(space, Space):
        space = Space(space)
    elems = space.elements
    # ``multichoose`` checks ``k`` and rejects a positive size over no elements.
    check_cells(multichoose(len(elems), k), f"multisets of size {k} over {len(elems)} elements")
    return [Multiset._of(dict(v), k) for v in _bounded_counts([(x, k) for x in elems], k)]


def enumerate_arrangements(m: Multiset) -> list[tuple]:
    """All distinct sequences accumulating to ``m``, in lexicographic order.

    Built level by level from the back: a level holds, for each
    sub-multiset of ``m`` of its size, the arrangements of that
    sub-multiset in order.  The next level puts a head of two elements
    (of one, at the first step of an odd size) in front of the
    arrangements of what is left, heads in order, so every prefix shares
    the suffixes that follow it and each suffix is built once.  Only two
    levels are alive at a time, and a level has at most as many sequences
    as the result, the multiset coefficient; stepping two elements at a
    time skips the second largest level.

    The levels below the result are held to the work of the result, the
    coefficient times the size.  Long runs of one element make many short
    levels of few sequences each (``[N a]`` has ``N / 2`` levels of one
    sequence); once the levels built cost more than the result, the
    sequences are listed by stepping from each to the next instead, so
    the cost stays within a constant times the result's.
    """
    coefficient = _kind(m, Multiset, "enumerate_arrangements got").coefficient()
    check_cells(coefficient, f"arrangements of a size-{m.size} multiset")
    # A sub-multiset is a packed int: element ``i`` of ``entries`` holds its
    # count at bits ``[i * bits, (i + 1) * bits)``.
    bits = m.size.bit_length()
    places = [((e,), 1 << i * bits, ((1 << bits) - 1) << i * bits, n << i * bits)
              for i, (e, n) in enumerate(m.entries)]
    # Each head in lexicographic order, with its packed count and, for up
    # to two masks, the most that the counts under them may be before it.
    ones = [(e, unit, mask, cap - unit, 0, 0) for e, unit, mask, cap in places]
    twos = [(e + f, unit + other, mask, cap - 2 * unit, 0, 0) if e == f else
            (e + f, unit + other, mask, cap - unit, mask2, cap2 - other)
            for e, unit, mask, cap in places for f, other, mask2, cap2 in places]
    level = {0: [()]}
    heads = ones if m.size % 2 else twos
    spare = coefficient * m.size  # the work the levels below the result may take
    for length in range(2 - m.size % 2, m.size + 1, 2):
        if spare < 0:
            return _stepped_arrangements(m)
        grown: dict[int, list] = {}
        for head, count, mask, most, mask2, most2 in heads:
            for key, tails in level.items():
                if key & mask <= most and key & mask2 <= most2:
                    seqs = [head + t for t in tails]
                    spare -= len(seqs) * length
                    key += count
                    if key in grown:
                        grown[key] += seqs
                    else:
                        grown[key] = seqs
        level, heads = grown, twos
    return level.popitem()[1]


def _stepped_arrangements(m: Multiset) -> list[tuple]:
    """``enumerate_arrangements(m)``, stepping from each sequence to the
    next in lexicographic order: each step costs the size, shared or not."""
    support = m.support
    # Positions in the support, ascending: the least sequence.
    seq = [i for i, (_, n) in enumerate(m.entries) for _ in range(n)]
    last = len(seq) - 1
    out: list[tuple] = []
    while True:
        out.append(tuple([support[i] for i in seq]))
        # The next permutation: grow the last position that has a larger
        # value after it, then put the tail in ascending order.
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])
