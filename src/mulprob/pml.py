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
  distributions, is the product of their two polynomials.

Both run on packed counts: the elements get indices once, a count vector
is one ``int`` with a fixed number of bits per element, so adding an
element to an outcome, or two outcomes, is one integer addition, and each
outcome ``Multiset`` is built once, at the end.

The other formulations, by joint outcomes, through the monoid structure
and by the law's defining triangle, exist only to cross-check this one
and live in ``mulprob.oracles``.  Their agreement is checked, not
assumed: the law suite re-derives it on enumerated inputs.
``lifted_map`` uses the law to apply a channel elementwise to a multiset,
the workhorse behind the sampling round trip.
"""

from typing import Iterable

from .combinatorics import multichoose
from .dist import Channel, Dist, _dist
from .elements import Elem, _show
from .errors import DomainError, check_cells
from .multiset import Multiset, enumerate_multisets


def _check_members(psi: Multiset) -> tuple[tuple[Dist, int], ...]:
    """The members of ``psi`` with their counts, in canonical order; each
    must be a distribution."""
    # One member needs no order, and its sort key would read the whole distribution.
    members = psi.entries if len(psi._map) > 1 else tuple(psi._map.items())
    for member, _ in members:
        if not isinstance(member, Dist):
            raise DomainError(f"expected a multiset of distributions, found {_show(member)}")
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
    """Count vectors over a fixed list of elements, packed into ints.

    Element ``i`` holds its count at bits ``[low + i * bits, low + (i + 1)
    * bits)``, where ``bits`` is wide enough for ``top``, the largest size
    of a product outcome, so the sum of two keys never carries from one
    element into the next.
    """

    def __init__(self, atoms: Iterable[Elem], top: int):
        self.atoms = atoms = list(atoms)
        self.bits = bits = top.bit_length()
        if len(atoms) * bits <= _WORD:
            self.low = 0
            self.units = {x: 1 << i * bits for i, x in enumerate(atoms)}
            return
        self.low = low = _WORD + bits  # room for ``top`` occurrences of fingerprint
        self.units, salt = {}, 1
        for i, x in enumerate(atoms):
            salt = salt * _BASE % _PRIME
            self.units[x] = (1 << low + i * bits) + salt

    def pack(self, counts: Iterable[tuple[Elem, int]]) -> int:
        units = self.units
        key = 0
        for x, n in counts:
            key += n * units[x]
        return key

    def unpack(self, poly: dict[int, int], den: int) -> Dist:
        """The distribution over multisets that the terms weigh, over ``den``.

        Decoding visits only the nonzero counts of a key: it skips the
        empty elements below the lowest set bit in one shift.
        """
        atoms, bits, low, of = self.atoms, self.bits, self.low, Multiset._of
        mask = (1 << bits) - 1
        outcomes = []
        for key in poly:
            key >>= low
            counts = {}
            size = i = 0
            while key:
                skip = ((key & -key).bit_length() - 1) // bits
                key >>= skip * bits
                i += skip
                n = key & mask
                counts[atoms[i]] = n
                size += n
                key >>= bits
                i += 1
            outcomes.append(of(counts, size))
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
    mass at the empty multiset.  The budget counts pairs of outcomes.
    """
    atoms: dict[Elem, None] = {}
    top = 0
    for d in (a, b):
        largest = 0
        for phi in _dist(d, "monoid_sum got")._map:
            if type(phi) is not Multiset:
                raise DomainError(f"monoid sum needs distributions over multisets, found {_show(phi)}")
            atoms.update(dict.fromkeys(phi._map))
            largest = max(largest, phi._total)
        top += largest
    packing = _Packing(atoms, top)
    a_poly, b_poly = ({packing.pack(phi._map.items()): w for phi, w in d._map.items()}
                      for d in (a, b))
    check_cells(len(a_poly) * len(b_poly), "monoid sum outcome pairs")
    return packing.unpack(_times(a_poly, b_poly.items()), a._total * b._total)


def pml(psi: Multiset) -> Dist:
    """Parallel draws: one multinomial per member, summed.

    The product of ``(sum_x omega(x) t_x)^n`` over the members ``(omega, n)``,
    taken in canonical order, one linear factor ``sum_x omega(x) t_x`` at a
    time, so no member's draws are listed.  Each member is budgeted, before
    its factors, as the monoid sum of its draws with the outcomes so far:
    its draws, then the pairs of them with those outcomes.
    """
    members = _check_members(psi)
    atoms: dict[Elem, None] = {}
    for omega, _ in members:
        atoms.update(dict.fromkeys(omega._map))
    packing = _Packing(atoms, psi.size)
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


def lifted_map(f: Channel, k: int) -> Channel:
    """Apply a channel to every occurrence in a size-k multiset.

    The result is a channel between multiset spaces: push each element of
    the input multiset through ``f`` and recombine the outcome
    distributions with ``pml``.  Both channels keep their tables, so a
    repeat at one multiset is a lookup, and ``f`` runs its kernel once per
    element however many multisets share it.
    """
    return Channel(enumerate_multisets(f.domain, k), lambda phi: pml(phi.map_elements(f)))
