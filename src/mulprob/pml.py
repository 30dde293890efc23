"""Turning a multiset of distributions into a distribution over multisets.

This is the library's central construction.  It admits several equivalent
formulations; the one computed here is

* ``pml``: draw from each member with the multinomial of its
  multiplicity, independently in parallel, and sum the draws.  A draw of
  size ``n`` from ``omega`` is a term of the polynomial
  ``(sum_x omega(x) t_x)^n`` in one variable per element, and summing
  independent draws multiplies polynomials, so ``pml`` lists the
  coefficients of the product of those polynomials over the members.  It
  multiplies by each member's linear factor ``sum_x omega(x) t_x``, ``n``
  times, so no member's draws are listed and terms that meet merge as
  they arise.
* ``monoid_sum``, the sum of two independent multiset-valued
  distributions, adds every pair of outcomes as the paper defines it.

``pml``'s kernel alone runs on packed counts: the elements get indices once, a
count vector is one ``int`` with a fixed number of bits per element, so
adding an element to an outcome is one integer addition, and each outcome
``Multiset`` is built once, at the end, from its key.  A key names a
multiset only relative to its packing, so the packing owns the table from
key to outcome; ``pml`` starts a fresh one each call.  ``monoid_sum``
shares none of this code, so the laws that state ``pml`` is a monoid
homomorphism compare two independent computations.

``lifted_map`` uses the law to apply a channel elementwise to a multiset,
the workhorse behind the sampling round trip.  Its kernel runs the same
product as ``pml``, through the same member sort, over one packing that
lasts as long as the channel, so an outcome that several outputs share
is built once and is the same object in each of them.

The other formulations, by joint outcomes, through the monoid structure
and by the law's defining triangle, exist only to cross-check this one
and live in ``mulprob.oracles``.  Their agreement is checked, not
assumed: the law suite re-derives it on enumerated inputs.
"""

from typing import Iterable, Sequence

from .combinatorics import multichoose
from .dist import Channel, Dist
from .elements import Elem, _kind, elem_key
from .errors import check_cells
from .multiset import Multiset, enumerate_multisets


def _check_members(counts: dict) -> list[tuple[Dist, int]]:
    """The members of a count dict with their counts, in canonical order;
    each must be a distribution."""
    members = sorted(counts.items(), key=lambda member: elem_key(member[0]))
    for member, _ in members:
        _kind(member, Dist, "expected a multiset of distributions, found")
    return members


# -- the kernel: products of count polynomials ---------------------------------
#
# A polynomial is a dict from packed count vectors to integer numerators.
# Python hashes an int modulo the prime ``2**61 - 1``, so keys wider than
# that word take few hash values when they have few nonzero counts: on
# 600 elements, the 90,000 outcomes of two disjoint uniform draws would
# share 1,891 hashes.  Wide keys therefore carry a fingerprint in their
# low bits that adds up with them: element ``i`` adds ``_BASE ** (i + 1)``
# modulo that prime per occurrence, which spreads the hashes.

_WORD = 61
_PRIME = (1 << _WORD) - 1
_BASE = 0x5DEECE66D


class _Packing:
    """Count vectors over a growing list of elements, packed into ints.

    Element ``i`` holds its count at bits ``[low + i * bits, low + (i + 1)
    * bits)``, where ``bits`` is wide enough for ``top``, the largest size
    of a product outcome, so the sum of two keys never carries from one
    element into the next.  An element gets the next index when it is
    first added, and its unit never changes after, except once: when the
    counts stop fitting one word, every unit moves above a fingerprint,
    whose salts go by index.  A key then names one multiset for the life
    of the packing: the keys of the two layouts never meet, since every
    nonempty outcome's wide key lies above the word that holds the narrow
    ones.  So the packing owns its outcome table, ``outcomes``, from each
    key unpacked so far to the multiset built for it.
    """

    def __init__(self, top: int):
        self.bits = top.bit_length()
        self.low = 0
        self.atoms: list[Elem] = []
        self.units: dict[Elem, int] = {}
        self.outcomes: dict[int, Multiset] = {}

    def add(self, atoms: Iterable[Elem]) -> None:
        """Index the distinct elements of ``atoms`` that have no index yet."""
        units, indexed = self.units, self.atoms
        start = len(indexed)
        indexed += [x for x in atoms if x not in units]
        bits = self.bits
        if not self.low and len(indexed) * bits > _WORD:
            # Room for ``top`` occurrences of fingerprint below the counts.
            self.low, start = _WORD + bits, 0
        low = self.low
        for i in range(start, len(indexed)):
            units[indexed[i]] = (1 << low + i * bits) + (pow(_BASE, i + 1, _PRIME) if low else 0)

    def unpack(self, poly: dict[int, int], den: int) -> Dist:
        """The distribution over multisets that the terms weigh, over ``den``.

        A key in the outcome table reuses its outcome.  A new key is
        decoded, built once by ``Multiset._of`` and stored there.  Decoding
        visits only the nonzero counts of a key: it skips the empty elements
        below the lowest set bit in one shift.
        """
        atoms, bits, low, of = self.atoms, self.bits, self.low, Multiset._of
        mask = (1 << bits) - 1
        table, outcomes = self.outcomes, []
        for key in poly:
            m = table.get(key)
            if m is None:
                counts = {}
                size = i = 0
                packed = key >> low
                while packed:
                    skip = ((packed & -packed).bit_length() - 1) // bits
                    packed >>= skip * bits
                    i += skip
                    n = packed & mask
                    counts[atoms[i]] = n
                    size += n
                    packed >>= bits
                    i += 1
                m = table[key] = of(counts, size)
            outcomes.append(m)
        return Dist._over(outcomes, poly.values(), den)


def _times(acc: dict[int, int], terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The product of the polynomial ``acc`` and the one with ``terms``."""
    out: dict[int, int] = {}
    for key, w in acc.items():
        for other, v in terms:
            k = key + other
            out[k] = out.get(k, 0) + w * v
    return out


def monoid_sum(a: Dist, b: Dist) -> Dist:
    """Sum of two independent multiset-valued distributions.

    The convolution with respect to multiset addition; it makes the set of
    distributions over multisets a commutative monoid, with unit the point
    mass at the empty multiset.  Every pair of outcomes is added with
    ``Multiset.__add__``, in the order of ``a`` and then of ``b``, and the
    pairs that meet add their weights; none of ``pml``'s packed kernel is
    used, so the laws that compare the two check one against the other.
    The budget counts pairs of outcomes.
    """
    for d in (a, b):
        for phi in _kind(d, Dist, "monoid_sum got")._map:
            _kind(phi, Multiset, "monoid sum needs distributions over multisets, found")
    check_cells(len(a._map) * len(b._map), "monoid sum outcome pairs")
    acc: dict[Multiset, int] = {}
    b_nums = b._map.items()
    for phi, w in a._map.items():
        for chi, v in b_nums:
            key = phi + chi
            acc[key] = acc.get(key, 0) + w * v
    return Dist._over(acc, acc.values(), a._total * b._total)


def _product(members: Sequence[tuple[Dist, int]], packing: _Packing) -> Dist:
    """The product of ``(sum_x omega(x) t_x)^n`` over the members ``(omega,
    n)``, in their order, one linear factor ``sum_x omega(x) t_x`` at a
    time, so no member's draws are listed.  Each member is budgeted, before
    its factors, as the monoid sum of its draws with the outcomes so far:
    its draws, then the pairs of them with those outcomes.  The outcomes
    are built, or read from the packing's outcome table, after the last
    charge, so a budget error builds and stores none.
    """
    for omega, _ in members:
        packing.add(omega._map)
    units = packing.units
    acc = {0: 1}
    den = 1
    for omega, n in members:
        draws = multichoose(len(omega._map), n)
        check_cells(draws, f"multisets of size {n} over {len(omega._map)} elements")
        check_cells(len(acc) * draws, "monoid sum outcome pairs")
        factor = [(units[x], v) for x, v in omega._map.items()]
        for _ in range(n):
            acc = _times(acc, factor)
        den *= omega._total ** n
    return packing.unpack(acc, den)


def pml(psi: Multiset) -> Dist:
    """Parallel draws: one multinomial per member, summed.

    The product of the members' draw polynomials, taken in canonical
    order over a fresh packing of their elements, with its own outcome
    table.
    """
    return _product(_check_members(_kind(psi, Multiset, "pml got")._map), _Packing(psi.size))


def lifted_map(f: Channel, k: int) -> Channel:
    """Apply a channel to every occurrence in a size-k multiset.

    The result is a channel between multiset spaces: its output at ``phi``
    is ``pml(phi.map_elements(f))``, the product of the members ``f(x)``,
    ``phi(x)`` times each, in canonical order.  The channel keeps one
    packing for all its outputs, which indexes an element of ``f``'s
    outputs when a point first draws on it, so ``f`` runs only at the
    elements of the points asked, and which owns the table from packed
    key to outcome.  Every output has size ``k``, so the key of an outcome
    stays fixed, and an outcome that several outputs share is built once
    and is the same object in each.  Both channels keep their tables, so a
    repeat at one multiset is a lookup, and ``f`` runs its kernel once per
    element however many multisets share it.
    """
    domain = enumerate_multisets(_kind(f, Channel, "lifted_map got").domain, k)
    packing = _Packing(k)
    return Channel(domain, lambda phi: _product(_check_members(phi._image(f)), packing))
